package main

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/labeling"
)

// Every output check must reject a deliberately corrupted output.

func TestSameSeedGivesIdenticalInputs(t *testing.T) {
	a, b := genInputs(7, 6), genInputs(7, 6)
	if a.hash() != b.hash() {
		t.Fatalf("same seed, different input hashes %s and %s", a.hash(), b.hash())
	}
	for i := range a.names {
		if a.names[i] != b.names[i] || a.html[i] != b.html[i] || a.vdoc[i] != b.vdoc[i] {
			t.Fatalf("same seed, document %d differs", i)
		}
	}
	if c := genInputs(8, 6); c.hash() == a.hash() {
		t.Fatalf("seeds 7 and 8 gave the same inputs")
	}
}

func TestBatchPassCheck(t *testing.T) {
	in := genInputs(3, 8)
	opts := core.Options{Epochs: 1, Seed: 3, Workers: 2}
	split := newBatchSplit(in)
	first, _, err := batchPass(in, split, opts)
	if err != nil {
		t.Fatal(err)
	}
	again, _, err := batchPass(in, split, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkPass(first, again); err != nil {
		t.Fatalf("two passes over the same inputs: %v", err)
	}
	if len(first.Predicted) == 0 {
		t.Fatal("the pass predicted nothing; the corruption cases below need a tuple")
	}

	dropped := again
	dropped.Predicted = again.Predicted[1:]
	changed := again
	changed.Predicted = append([]core.GoldTuple(nil), again.Predicted...)
	changed.Predicted[0] = core.GoldTuple{Doc: changed.Predicted[0].Doc, Values: []string{"bogus", "0"}}
	f1 := again
	f1.Quality.F1 = math.Nextafter(again.Quality.F1, 0)
	for name, bad := range map[string]core.Result{"dropped tuple": dropped, "changed tuple": changed, "changed F1": f1} {
		if checkPass(first, bad) == nil {
			t.Errorf("%s: check passed", name)
		}
	}
}

func TestCheckF1(t *testing.T) {
	if err := checkF1(0.9); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{0, -0.1, 1.5, math.NaN()} {
		if checkF1(bad) == nil {
			t.Errorf("F1 %v passed", bad)
		}
	}
}

func TestCheckIngestEpoch(t *testing.T) {
	if err := checkIngestEpoch(200, 4, 5); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		status      int
		prev, epoch uint64
	}{{500, 4, 5}, {409, 4, 5}, {200, 4, 4}, {200, 4, 6}, {200, 4, 3}} {
		if checkIngestEpoch(c.status, c.prev, c.epoch) == nil {
			t.Errorf("status %d, epoch %d after %d passed", c.status, c.epoch, c.prev)
		}
	}
}

func TestCheckReadEpoch(t *testing.T) {
	if err := checkReadEpoch(3, 3); err != nil {
		t.Fatal(err)
	}
	if err := checkReadEpoch(3, 4); err != nil {
		t.Fatal(err)
	}
	if checkReadEpoch(4, 3) == nil {
		t.Error("an epoch going backwards passed")
	}
}

func TestReaderRejectsCorruptedReplies(t *testing.T) {
	f := &kbFilter{col: "part", want: "smbt3904"}
	good := `{"epoch":7,"columns":["part","value"],"total":2,"tuples":[["smbt3904","200"],["smbt3904","300"]]}`
	r := &serveReader{}
	if err := r.check(200, []byte(good), f); err != nil {
		t.Fatalf("good reply: %v", err)
	}
	bad := map[string]struct {
		status int
		body   string
	}{
		"row off the predicate": {200, strings.Replace(good, `["smbt3904","300"]`, `["bc847","300"]`, 1)},
		"total below rows":      {200, strings.Replace(good, `"total":2`, `"total":1`, 1)},
		"epoch backwards":       {200, strings.Replace(good, `"epoch":7`, `"epoch":6`, 1)},
		"missing column":        {200, strings.Replace(good, `"part","value"`, `"name","value"`, 1)},
		"error status":          {500, `{"error":"boom"}`},
		"truncated body":        {200, good[:len(good)/2]},
	}
	for name, c := range bad {
		r := &serveReader{lastEpoch: 7}
		if r.check(c.status, []byte(c.body), f) == nil {
			t.Errorf("%s: check passed", name)
		}
	}
}

func TestLFDevMatchesMemoryStoreAndCatchesCorruption(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	in := genInputs(5, 12)
	disk, err := newLFStore(in, "disk", 2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.st.Close()
	mem, err := newLFStore(in, "memory", 0, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer mem.st.Close()
	lfs := in.task.LFs
	steps := len(lfs) + 3 // the first pass, then three edits
	for _, s := range []*lfState{disk, mem} {
		for i := 0; i < steps; i++ {
			if err := lfScript(i, len(lfs)).apply(s.ds, lfs); err != nil {
				t.Fatal(err)
			}
		}
	}
	dm, mm := disk.ds.Marginals(), mem.ds.Marginals()
	dx, mx := disk.ds.Metrics(), mem.ds.Metrics()
	if err := checkSameLabels(dm, mm, dx, mx); err != nil {
		t.Fatalf("disk and memory stores disagree: %v", err)
	}

	flipped := append([]float64(nil), dm...)
	flipped[len(flipped)/2] = math.Nextafter(flipped[len(flipped)/2], 2)
	if checkSameLabels(flipped, mm, dx, mx) == nil {
		t.Error("a marginal one ulp off passed")
	}
	if checkSameLabels(dm[1:], mm, dx, mx) == nil {
		t.Error("a missing marginal passed")
	}
	metrics := dx
	metrics.PerLF = append([]labeling.LFMetrics(nil), dx.PerLF...)
	metrics.PerLF[0].Coverage += 0.01
	if checkSameLabels(dm, mm, metrics, mx) == nil {
		t.Error("changed LF metrics passed")
	}
}

func TestCheckFilteredRows(t *testing.T) {
	cols := []string{"part", "value"}
	rows := [][]any{{"bc847", "100"}, {"bc847", "250"}}
	if err := checkFilteredRows(cols, rows, 2, "part", "bc847"); err != nil {
		t.Fatal(err)
	}
	if checkFilteredRows(cols, rows, 2, "value", "100") == nil {
		t.Error("a row off the predicate passed")
	}
	if checkFilteredRows(cols, rows, 2, "size", "1") == nil {
		t.Error("a filter on a missing column passed")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := quantile(xs, 0.25); got != 2 {
		t.Errorf("q25 = %v", got)
	}
	if got := quantile(xs, 1); got != 5 {
		t.Errorf("max = %v", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty = %v", got)
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "root", StartUs: 0, EndUs: 100},
		{ID: 2, Parent: 1, Name: "a", StartUs: 10, EndUs: 40},
		{ID: 3, Parent: 1, Name: "b", StartUs: 30, EndUs: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", StartUs: 90, EndUs: 120}, // runs past the root
	}
	self := tr.selfUs()
	if want := 100.0 - 40 - 10; self[0] != want {
		t.Errorf("root self = %v, want %v", self[0], want)
	}
	if self[1] != 30 {
		t.Errorf("leaf self = %v, want 30", self[1])
	}
}
