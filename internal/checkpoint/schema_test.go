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
	"repro/internal/cluster"
)

// The gob layouts of version 2 of the checkpoint and manifest formats.
// A change to either hash changes what a version-2 file holds.
const (
	stateSchema    = "0e8d573985dcb00970852d8158e53ad68c04a032ca727f5ddbea8da095cadca2"
	manifestSchema = "96cb96ec5a0c52cc65ade92390749648e10e5e0071f1f21ee83f80b2fa36329a"
)

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

// TestSchemaPinned holds the gob layouts of checkpoint.State and
// cluster.Manifest, everything they hold included, to the hashes
// pinned above. Gob decodes an older layout into a newer one silently,
// matching fields by name, so a field renamed, retyped or dropped
// without a version bump would restore wrong state from an older file
// instead of upgrading it.
func TestSchemaPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		v    any
		want string
	}{
		{"checkpoint.State", checkpoint.State{}, stateSchema},
		{"cluster.Manifest", cluster.Manifest{}, manifestSchema},
	} {
		layout := gobLayout(reflect.TypeOf(tc.v), map[reflect.Type]bool{})
		sum := sha256.Sum256([]byte(layout))
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("the gob layout of %s changed (hash %s, pinned %s): bump the version and teach compat.go the old layout, then pin the new hash.\nlayout: %s",
				tc.name, got, tc.want, layout)
		}
	}
}
