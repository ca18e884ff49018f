package core

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// familyLiteral is a metric family name as a Go string literal.
var familyLiteral = regexp.MustCompile(`"(maritime_[a-z0-9_]+)"`)

// tableName is one backticked name in a README metrics-table row,
// label selector or brace alternation included.
var tableName = regexp.MustCompile("`(maritime_[^`]+)`")

// TestMetricFamiliesDocumented holds README's metrics table to every
// maritime_* family an internal package registers (the pipeline,
// tracker, ingest, alert log, checkpoint, cluster, feed and serve tiers):
// a family added without a row fails here.
func TestMetricFamiliesDocumented(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, line := range strings.Split(string(readme), "\n") {
		if !strings.HasPrefix(line, "| `maritime_") {
			continue
		}
		cell, _, _ := strings.Cut(strings.TrimPrefix(line, "| "), " |")
		for _, m := range tableName.FindAllStringSubmatch(cell, -1) {
			for _, name := range expandFamily(m[1]) {
				documented[name] = true
			}
		}
	}
	if len(documented) == 0 {
		t.Fatal("README has no metrics table rows")
	}
	var missing []string
	for _, dir := range []string{".", "../tracker", "../stream", "../alertlog", "../checkpoint", "../cluster", "../feed", "../serve"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range familyLiteral.FindAllStringSubmatch(string(src), -1) {
				if !documented[m[1]] && !slices.Contains(missing, m[1]) {
					missing = append(missing, m[1])
				}
			}
		}
	}
	for _, name := range missing {
		t.Errorf("%s is registered but has no row in README's metrics table", name)
	}
}

// expandFamily turns a table name into the family names it stands for:
// a label selector (`{stage=…}`) is dropped, a brace alternation
// (`{a,b}`) expands.
func expandFamily(name string) []string {
	open := strings.IndexByte(name, '{')
	if open < 0 {
		return []string{name}
	}
	end := strings.IndexByte(name[open:], '}')
	if end < 0 {
		return []string{name}
	}
	end += open
	inner, rest := name[open+1:end], name[end+1:]
	if strings.Contains(inner, "=") {
		return []string{name[:open]}
	}
	var out []string
	for _, alt := range strings.Split(inner, ",") {
		out = append(out, expandFamily(name[:open]+alt+rest)...)
	}
	return out
}

func TestExpandFamily(t *testing.T) {
	for in, want := range map[string][]string{
		"maritime_slides_total":                        {"maritime_slides_total"},
		"maritime_slide_stage_seconds{stage=…}":        {"maritime_slide_stage_seconds"},
		"maritime_feed_{dial_attempts,resumes}_total":  {"maritime_feed_dial_attempts_total", "maritime_feed_resumes_total"},
		"maritime_tracker_shard_{panics,stalls}_total": {"maritime_tracker_shard_panics_total", "maritime_tracker_shard_stalls_total"},
	} {
		if got := expandFamily(in); !slices.Equal(got, want) {
			t.Errorf("expandFamily(%q) = %q, want %q", in, got, want)
		}
	}
}
