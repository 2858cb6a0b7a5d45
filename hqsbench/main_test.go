package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func hardKeys(t *testing.T, seed int64) []string {
	t.Helper()
	items, err := setupHard(seed)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(items))
	for i, it := range items {
		keys[i] = it.key
	}
	return keys
}

func TestHardSeedDeterminism(t *testing.T) {
	a, b, c := hardKeys(t, 1), hardKeys(t, 1), hardKeys(t, 2)
	if len(a) == 0 {
		t.Fatal("empty hqs_hard run set")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, item %d: hash %s vs %s", i, a[i], b[i])
		}
	}
	seen := make(map[string]bool)
	for _, k := range a {
		seen[k] = true
	}
	for _, k := range c {
		if seen[k] {
			t.Fatalf("seeds 1 and 2 share canonical hash %s", k)
		}
	}
}

func coldKeys(t *testing.T, f *serveFixture, n int) []string {
	t.Helper()
	pick := f.coldPicker()
	var keys []string
	for i := 0; i < n; i++ {
		idx := pick(0)
		if idx < 0 {
			break
		}
		keys = append(keys, f.pool[idx].Key)
	}
	return keys
}

func TestServeSeedsAndColdDistinct(t *testing.T) {
	mk := func(seed int64) *serveFixture {
		f, err := setupServe(seed, filepath.Join(t.TempDir(), "store"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.close() })
		return f
	}
	a, b, c := mk(1), mk(1), mk(2)
	ka, kb, kc := coldKeys(t, a, coldBatch), coldKeys(t, b, coldBatch), coldKeys(t, c, coldBatch)
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("same seed, request %d: hash %s vs %s", i, ka[i], kb[i])
		}
	}
	same := 0
	inA := make(map[string]bool)
	for _, k := range ka {
		inA[k] = true
	}
	for _, k := range kc {
		if inA[k] {
			same++
		}
	}
	if same == len(kc) {
		t.Fatal("seeds 1 and 2 send the same request set")
	}

	// serve_cold must never send two requests with one canonical hash: its
	// picker walks the whole pool once, and the pool is distinct.
	all := coldKeys(t, a, len(a.pool)+10)
	if len(all) != len(a.pool) {
		t.Fatalf("cold picker handed out %d of the %d pool entries", len(all), len(a.pool))
	}
	seen := make(map[string]bool)
	for _, k := range all {
		if seen[k] {
			t.Fatalf("serve_cold repeats canonical hash %s", k)
		}
		seen[k] = true
	}
}

// TestWarmWorkingSetSpillsToStore checks that a working set larger than the
// LRU sends repeats to the store: after a pre-solve of lruSize+16
// instances, the first one has been evicted from the LRU and must come back
// from the store.
func TestWarmWorkingSetSpillsToStore(t *testing.T) {
	if warmSetSize <= lruSize {
		t.Fatalf("warm working set %d does not exceed the LRU size %d", warmSetSize, lruSize)
	}
	if testing.Short() {
		t.Skip("solves a few hundred instances")
	}
	f, err := setupServe(1, filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	o := newOutcome()
	if err := f.warmUp(lruSize+16, o); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	s := f.post(f.order[0], 1, nil, o, &mu)
	if !o.Correct {
		t.Fatal(o.Problems)
	}
	if !s.ok || !s.fromStore {
		t.Fatalf("repeat of an evicted instance: ok=%v from_store=%v from_cache=%v", s.ok, s.fromStore, s.fromCache)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric tables
// the command reports in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer())
}

func TestAttributionSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("solves hqs_hard instances twice")
	}
	var report bytes.Buffer
	if err := checkAttribution(&report, 12); err != nil {
		t.Fatalf("%v\n%s", err, report.String())
	}
}
