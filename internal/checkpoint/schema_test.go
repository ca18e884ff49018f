package checkpoint_test

import (
	"crypto/sha256"
	"encoding"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/checkpoint"
)

// stateSchema is the gob layout of version 3 of the checkpoint format,
// which checkpoints and cluster manifests share (and the layout
// version-2 manifests had). A change to it changes what a version-3
// file holds.
const stateSchema = "96cb96ec5a0c52cc65ade92390749648e10e5e0071f1f21ee83f80b2fa36329a"

var (
	gobEncoder      = reflect.TypeFor[gob.GobEncoder]()
	binaryMarshaler = reflect.TypeFor[encoding.BinaryMarshaler]()
)

// gobLayout describes t as gob matches it on decode: struct fields by
// name (exported ones, chan and func fields skipped, order irrelevant),
// pointers followed, integers, floats and complexes by class, and a
// type that encodes itself (time.Time) as a leaf named by its type.
func gobLayout(t reflect.Type, open map[reflect.Type]bool) string {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t.Implements(gobEncoder) || t.Implements(binaryMarshaler) ||
		reflect.PointerTo(t).Implements(gobEncoder) || reflect.PointerTo(t).Implements(binaryMarshaler) {
		return t.String()
	}
	switch t.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return "int"
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return "uint"
	case reflect.Float32, reflect.Float64:
		return "float"
	case reflect.Complex64, reflect.Complex128:
		return "complex"
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			return "bytes"
		}
		return "[]" + gobLayout(t.Elem(), open)
	case reflect.Array:
		return fmt.Sprintf("[%d]%s", t.Len(), gobLayout(t.Elem(), open))
	case reflect.Map:
		return "map[" + gobLayout(t.Key(), open) + "]" + gobLayout(t.Elem(), open)
	case reflect.Struct:
		if open[t] {
			return "recursive " + t.String()
		}
		open[t] = true
		defer delete(open, t)
		var fields []string
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() || f.Type.Kind() == reflect.Chan || f.Type.Kind() == reflect.Func {
				continue
			}
			fields = append(fields, f.Name+" "+gobLayout(f.Type, open))
		}
		slices.Sort(fields)
		return "{" + strings.Join(fields, "; ") + "}"
	}
	return t.Kind().String()
}

// TestSchemaPinned holds the gob layout of checkpoint.State,
// everything it holds included, to the hash pinned above. Gob decodes
// an older layout into a newer one silently, matching fields by name,
// so a field renamed, retyped or dropped without a version bump would
// restore wrong state from an older file.
func TestSchemaPinned(t *testing.T) {
	layout := gobLayout(reflect.TypeFor[checkpoint.State](), map[reflect.Type]bool{})
	sum := sha256.Sum256([]byte(layout))
	if got := hex.EncodeToString(sum[:]); got != stateSchema {
		t.Errorf("the gob layout of checkpoint.State changed (hash %s, pinned %s): bump the format version, check that a file of the version before still decodes into the new layout by field name (DESIGN §9), then pin the new hash.\nlayout: %s",
			got, stateSchema, layout)
	}
}
