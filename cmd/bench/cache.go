package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// cacheKeep bounds the input cache: the newest entries stay, older ones
// are removed, so a driver that never repeats a seed fills no disk.
const cacheKeep = 4

// cacheKey names the input and reference of one (workload shape, seed,
// stream length) on one build of the code. The two paced workloads
// share a shape, hence an entry.
func cacheKey(e env, w workload, seed int64, d time.Duration) string {
	shape := fmt.Sprintf("n%d a%d p%d w%s b%s pw%v seed%d d%s bin%s",
		w.Vessels, w.Areas, w.Pairs, w.Window, w.Slide, w.Pairwise, seed, d, e.digest)
	sum := sha256.Sum256([]byte(shape))
	return hex.EncodeToString(sum[:10])
}

// loadInput returns the workload's feed bytes and reference alerts,
// from the cache under .bench_build when this build has made them
// before, else generated from the seed and stored.
func loadInput(e env, w workload, seed int64, d time.Duration) (in *input, ref *reference, hit bool, err error) {
	dir := filepath.Join(e.root, buildDir, "cache")
	base := filepath.Join(dir, cacheKey(e, w, seed, d))
	if in, ref, err = readCache(base, w); err == nil {
		now := time.Now()
		_ = os.Chtimes(base+".ref.json", now, now) // keeps the entry young; eviction is best-effort
		return in, ref, true, nil
	}
	if in, err = generate(w, seed, d); err != nil {
		return nil, nil, false, err
	}
	ref, _ = runSystem(w, buildWorld(w, seed), scanned(w, in), false)
	if err := writeCache(dir, base, in, ref); err != nil {
		fmt.Fprintf(os.Stderr, "bench: input cache not written: %v\n", err)
	}
	return in, ref, false, nil
}

func readCache(base string, w workload) (*input, *reference, error) {
	raw, err := os.ReadFile(base + ".ref.json")
	if err != nil {
		return nil, nil, err
	}
	ref := new(reference)
	if err := json.Unmarshal(raw, ref); err != nil {
		return nil, nil, err
	}
	data, err := os.ReadFile(base + ".feed")
	if err != nil {
		return nil, nil, err
	}
	in, err := indexInput(data, w.Slide)
	if err != nil {
		return nil, nil, err
	}
	if len(ref.Slides) != in.slides() {
		return nil, nil, fmt.Errorf("cache entry %s: %d reference slides for %d input slides", base, len(ref.Slides), in.slides())
	}
	return in, ref, nil
}

// writeCache stores an entry — the reference last, by rename, so a
// reader never sees half of one — and evicts the oldest beyond
// cacheKeep.
func writeCache(dir, base string, in *input, ref *reference) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(ref)
	if err != nil {
		return err
	}
	for _, f := range []struct {
		suffix string
		data   []byte
	}{{".feed", in.data}, {".ref.json", raw}} {
		tmp := base + f.suffix + ".tmp"
		if err := os.WriteFile(tmp, f.data, 0o644); err != nil {
			return err
		}
		if err := os.Rename(tmp, base+f.suffix); err != nil {
			return err
		}
	}
	refs, err := filepath.Glob(filepath.Join(dir, "*.ref.json"))
	if err != nil {
		return err
	}
	age := func(p string) time.Time {
		if st, err := os.Stat(p); err == nil {
			return st.ModTime()
		}
		return time.Time{}
	}
	sort.Slice(refs, func(i, j int) bool { return age(refs[i]).After(age(refs[j])) })
	for _, old := range refs[min(cacheKeep, len(refs)):] {
		os.Remove(old)
		os.Remove(strings.TrimSuffix(old, ".ref.json") + ".feed")
	}
	return nil
}
