package repro

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPackagesDocumented holds README's package table to the tree:
// every package under internal/ has a row, and every row names one.
func TestPackagesDocumented(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]bool{}
	for _, line := range strings.Split(string(readme), "\n") {
		if rest, ok := strings.CutPrefix(line, "| `internal/"); ok {
			name, _, _ := strings.Cut(rest, "`")
			rows[name] = true
		}
	}
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if src, _ := filepath.Glob(filepath.Join("internal", d.Name(), "*.go")); d.IsDir() && len(src) > 0 {
			if !rows[d.Name()] {
				t.Errorf("internal/%s has no row in README's package table", d.Name())
			}
			delete(rows, d.Name())
		}
	}
	for name := range rows {
		t.Errorf("README's package table lists internal/%s, which is not a package", name)
	}
}
