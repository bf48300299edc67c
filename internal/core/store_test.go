package core_test

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/datamodel"
	"repro/internal/features"
	"repro/internal/kbase"
	"repro/internal/labeling"
	"repro/internal/synth"
)

// newStore is core.NewStore closed when the test ends, so a
// disk-backed store never leaves its spill directory behind.
func newStore(t testing.TB, task core.Task, opts core.Options) *core.Store {
	st := core.NewStore(task, opts)
	closeAtEnd(t, st)
	return st
}

// openStore is core.OpenStore closed when the test ends.
func openStore(t testing.TB, dir string, task core.Task, opts core.Options) (*core.Store, error) {
	st, err := core.OpenStore(dir, task, opts)
	if err == nil {
		closeAtEnd(t, st)
	}
	return st, err
}

func closeAtEnd(t testing.TB, st *core.Store) {
	t.Cleanup(func() {
		if err := st.Close(); err != nil {
			t.Error(err)
		}
	})
}

func docNames(docs []*datamodel.Document) []string {
	out := make([]string, len(docs))
	for i, d := range docs {
		out[i] = d.Name
	}
	return out
}

// batchings enumerates ways to split a doc list into ingestion
// batches: all at once, two halves, one document at a time, and
// reversed halves (ingestion order must not matter).
func batchings(docs []*datamodel.Document) [][][]*datamodel.Document {
	half := len(docs) / 2
	oneAtATime := make([][]*datamodel.Document, 0, len(docs))
	for _, d := range docs {
		oneAtATime = append(oneAtATime, []*datamodel.Document{d})
	}
	return [][][]*datamodel.Document{
		{docs},
		{docs[:half], docs[half:]},
		oneAtATime,
		{docs[half:], docs[:half]},
	}
}

// TestStoreIncrementalEquivalence is the tentpole invariant: ingesting
// the corpus through Store.AddDocuments under any batching (including
// one document at a time, and out of order), at workers {1, 2, 8},
// then running a split from the store yields a Result bit-identical to
// a single from-scratch core.Run over the union corpus.
func TestStoreIncrementalEquivalence(t *testing.T) {
	corpus := synth.Electronics(61, 12)
	task := corpus.Tasks[0]
	train, test := corpus.Split()
	gold := corpus.GoldTuples[task.Relation]

	for _, workers := range []int{1, 2, 8} {
		opts := core.Options{Seed: 7, Epochs: 2, Workers: workers}
		want := normalizeResult(core.Run(task, train, test, gold, opts))
		if want.TrainCandidates == 0 || want.NumFeatures == 0 {
			t.Fatalf("degenerate baseline: %+v", want)
		}
		for bi, batches := range batchings(corpus.Docs) {
			st := newStore(t, task, opts)
			for _, batch := range batches {
				if err := st.AddDocuments(batch...); err != nil {
					t.Fatalf("workers=%d batching=%d: %v", workers, bi, err)
				}
			}
			got, err := st.RunSplit(docNames(train), docNames(test), gold)
			if err != nil {
				t.Fatalf("workers=%d batching=%d: %v", workers, bi, err)
			}
			if !reflect.DeepEqual(normalizeResult(got), want) {
				t.Errorf("workers=%d batching=%d: store Result differs from scratch Run\n got: %+v\nwant: %+v",
					workers, bi, normalizeResult(got), want)
			}
		}
	}
}

// TestStoreIndexEvolution checks the incremental index maintenance
// directly: however the corpus is batched, the session feature index
// converges to the same name set (IndexDiff empty both ways), and
// re-ingesting an already-ingested document is a no-op.
func TestStoreIndexEvolution(t *testing.T) {
	corpus := synth.Electronics(62, 8)
	task := corpus.Tasks[0]
	opts := core.Options{Seed: 1, Epochs: 1}

	scratch := newStore(t, task, opts)
	if err := scratch.AddDocuments(corpus.Docs...); err != nil {
		t.Fatal(err)
	}
	incr := newStore(t, task, opts)
	for _, d := range corpus.Docs {
		if err := incr.AddDocuments(d); err != nil {
			t.Fatal(err)
		}
	}
	added, removed := features.IndexDiff(scratch.FeatureIndex(), incr.FeatureIndex())
	if len(added) != 0 || len(removed) != 0 {
		t.Fatalf("index diverged under batching: added %v removed %v", added, removed)
	}
	if scratch.FeatureIndex().Len() == 0 {
		t.Fatal("no features admitted")
	}

	// Idempotent re-ingestion of the same pointer.
	before := len(incr.Candidates())
	if err := incr.AddDocuments(corpus.Docs[0]); err != nil {
		t.Fatal(err)
	}
	if len(incr.Candidates()) != before {
		t.Fatal("re-ingesting a document must be a no-op")
	}
	// A different document under an ingested name is rejected.
	clone := synth.Electronics(99, 1).Docs[0]
	clone.Name = corpus.Docs[0].Name
	if err := incr.AddDocuments(clone); err == nil {
		t.Fatal("conflicting re-ingestion must error")
	}
}

// TestStoreSnapshotResume checks the session round trip: snapshot to
// disk, resume with OpenStore, and require (a) relation-level equality
// of the restored kbase DB and (b) a bit-identical RunSplit Result —
// without any re-parsing or re-extraction (the restored store never
// sees the original documents).
func TestStoreSnapshotResume(t *testing.T) {
	corpus := synth.Electronics(63, 10)
	task := corpus.Tasks[0]
	train, test := corpus.Split()
	gold := corpus.GoldTuples[task.Relation]
	opts := core.Options{Seed: 5, Epochs: 2}

	st := newStore(t, task, opts)
	if err := st.AddDocuments(corpus.Docs...); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "session")
	if err := st.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	if !core.IsStoreDir(dir) {
		t.Fatal("IsStoreDir must recognize the snapshot")
	}

	resumed, err := openStore(t, dir, task, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !kbase.EqualDB(st.DB(), resumed.DB()) {
		t.Fatal("restored relations differ from the live store")
	}
	if len(resumed.Candidates()) != len(st.Candidates()) {
		t.Fatalf("candidates: %d vs %d", len(resumed.Candidates()), len(st.Candidates()))
	}

	want, err := st.RunSplit(docNames(train), docNames(test), gold)
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumed.RunSplit(docNames(train), docNames(test), gold)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalizeResult(got), normalizeResult(want)) {
		t.Fatalf("resumed Result differs\n got: %+v\nwant: %+v", normalizeResult(got), normalizeResult(want))
	}

	// The resumed store keeps working incrementally: snapshot again
	// and compare relations (order-insensitive set equality).
	dir2 := filepath.Join(t.TempDir(), "session2")
	if err := resumed.Snapshot(dir2); err != nil {
		t.Fatal(err)
	}
	again, err := openStore(t, dir2, task, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !kbase.EqualDB(st.DB(), again.DB()) {
		t.Fatal("second-generation snapshot drifted")
	}
}

// TestStoreResumeLFFidelity guards the LF-iteration-after-resume
// workflow: applying a labeling function to a *resumed* store must
// produce exactly the votes a live session produces, including for
// LFs that read structural, tabular and visual attributes (HTML tags,
// row/column ngrams, table headers, fonts) — the attributes a naive
// words-only snapshot would lose, turning those LFs into silent
// all-abstain columns.
func TestStoreResumeLFFidelity(t *testing.T) {
	for _, domain := range []struct {
		name   string
		corpus *synth.Corpus
	}{
		{"electronics", synth.Electronics(66, 6)}, // HTML + vdoc: tabular, visual, structural LFs
		{"genomics", synth.Genomics(67, 6)},       // native XML: no visual modality
	} {
		task := domain.corpus.Tasks[0]
		opts := core.Options{Epochs: 1, LFs: []labeling.LF{}}
		live := newStore(t, task, opts)
		if err := live.AddDocuments(domain.corpus.Docs...); err != nil {
			t.Fatalf("%s: %v", domain.name, err)
		}
		dir := filepath.Join(t.TempDir(), domain.name)
		if err := live.Snapshot(dir); err != nil {
			t.Fatalf("%s: %v", domain.name, err)
		}
		resumed, err := openStore(t, dir, task, opts)
		if err != nil {
			t.Fatalf("%s: %v", domain.name, err)
		}
		for _, lf := range task.LFs {
			live.AddLF(lf)
			resumed.AddLF(lf)
		}
		lm, rm := live.LabelMatrix(), resumed.LabelMatrix()
		if lm.NumCands != rm.NumCands || lm.NumLFs != rm.NumLFs {
			t.Fatalf("%s: matrix dims differ: %dx%d vs %dx%d", domain.name, lm.NumCands, lm.NumLFs, rm.NumCands, rm.NumLFs)
		}
		diverged := 0
		for i := 0; i < lm.NumCands; i++ {
			if !reflect.DeepEqual(lm.RowLabels(i), rm.RowLabels(i)) {
				diverged++
			}
		}
		if diverged != 0 {
			t.Fatalf("%s: %d/%d candidates get different LF votes after resume", domain.name, diverged, lm.NumCands)
		}
		if m := labeling.ComputeMetrics(rm); m.Coverage == 0 {
			t.Fatalf("%s: resumed LF application is all-abstain (coverage 0)", domain.name)
		}
	}
}

// TestStoreSnapshotAllDomains runs the snapshot -> restore -> RunSplit
// equivalence over every corpus domain (HTML+vdoc, heterogeneous
// HTML, long articles, native XML), so document rebuilding is
// exercised against each generator's structure.
func TestStoreSnapshotAllDomains(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-domain snapshot sweep; run without -short")
	}
	for _, domain := range []struct {
		name   string
		corpus *synth.Corpus
	}{
		{"electronics", synth.Electronics(71, 6)},
		{"ads", synth.Ads(72, 8)},
		{"paleo", synth.Paleo(73, 4)},
		{"genomics", synth.Genomics(74, 6)},
	} {
		task := domain.corpus.Tasks[0]
		train, test := domain.corpus.Split()
		gold := domain.corpus.GoldTuples[task.Relation]
		opts := core.Options{Seed: 2, Epochs: 1}
		st := newStore(t, task, opts)
		if err := st.AddDocuments(domain.corpus.Docs...); err != nil {
			t.Fatalf("%s: %v", domain.name, err)
		}
		dir := filepath.Join(t.TempDir(), domain.name)
		if err := st.Snapshot(dir); err != nil {
			t.Fatalf("%s: %v", domain.name, err)
		}
		resumed, err := openStore(t, dir, task, opts)
		if err != nil {
			t.Fatalf("%s: %v", domain.name, err)
		}
		want, err := st.RunSplit(docNames(train), docNames(test), gold)
		if err != nil {
			t.Fatalf("%s: %v", domain.name, err)
		}
		got, err := resumed.RunSplit(docNames(train), docNames(test), gold)
		if err != nil {
			t.Fatalf("%s: %v", domain.name, err)
		}
		if !reflect.DeepEqual(normalizeResult(got), normalizeResult(want)) {
			t.Errorf("%s: resumed Result differs\n got: %+v\nwant: %+v",
				domain.name, normalizeResult(got), normalizeResult(want))
		}
		// Re-snapshotting the resumed store reproduces the relations.
		dir2 := filepath.Join(t.TempDir(), domain.name+"2")
		if err := resumed.Snapshot(dir2); err != nil {
			t.Fatalf("%s: %v", domain.name, err)
		}
		again, err := openStore(t, dir2, task, opts)
		if err != nil {
			t.Fatalf("%s: %v", domain.name, err)
		}
		if !kbase.EqualDB(st.DB(), again.DB()) {
			t.Errorf("%s: second-generation snapshot drifted", domain.name)
		}
	}
}

// TestStoreOpenValidation: resuming under a different configuration
// (here: a different relation, and an ablated modality set) must fail
// loudly instead of silently mixing incompatible feature spaces.
func TestStoreOpenValidation(t *testing.T) {
	corpus := synth.Electronics(64, 4)
	task := corpus.Tasks[0]
	st := newStore(t, task, core.Options{Epochs: 1})
	if err := st.AddDocuments(corpus.Docs...); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "s")
	if err := st.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := openStore(t, dir, corpus.Tasks[1], core.Options{Epochs: 1}); err == nil {
		t.Fatal("wrong relation must be rejected")
	}
	if _, err := openStore(t, dir, task, core.Options{
		Epochs:             1,
		DisabledModalities: []features.Modality{features.Visual},
	}); err == nil {
		t.Fatal("mismatched modality configuration must be rejected")
	}
	// Persisted votes are bound to the exact LF sequence: a reordered
	// LF list must be rejected, not silently matched to stale columns.
	reversed := make([]labeling.LF, len(task.LFs))
	for i, lf := range task.LFs {
		reversed[len(task.LFs)-1-i] = lf
	}
	if _, err := openStore(t, dir, task, core.Options{Epochs: 1, LFs: reversed}); err == nil {
		t.Fatal("reordered LFs must be rejected")
	}
	// Runtime knobs may differ freely.
	if _, err := openStore(t, dir, task, core.Options{Epochs: 9, Seed: 42, Threshold: 0.9, Workers: 2}); err != nil {
		t.Fatalf("runtime knobs must not block resume: %v", err)
	}
}

// TestStoreRejectsSeparatorBytes: documents whose text carries the
// snapshot encoding's reserved control bytes must fail to persist
// loudly instead of corrupting the round trip.
func TestStoreRejectsSeparatorBytes(t *testing.T) {
	b := datamodel.NewBuilder("evil", "html")
	par := b.AddParagraph(b.AddText())
	b.AddSentence(par, []string{"fine", "bad\x1fword"})
	doc := b.Finish()

	corpus := synth.Electronics(68, 1)
	st := newStore(t, corpus.Tasks[0], core.Options{Epochs: 1})
	if err := st.AddDocuments(doc); err == nil {
		t.Fatal("reserved separator bytes must be rejected at ingest")
	}
}

// TestStoreLFIteration exercises the shared dev/production state: LF
// add/edit on a store, with the Labels relation re-materialized (rows
// deleted and rewritten) on edit.
func TestStoreLFIteration(t *testing.T) {
	corpus := synth.Electronics(65, 6)
	task := corpus.Tasks[0]
	st := newStore(t, task, core.Options{Epochs: 1, LFs: []labeling.LF{}})
	if err := st.AddDocuments(corpus.Docs...); err != nil {
		t.Fatal(err)
	}
	if st.NumLFs() != 0 {
		t.Fatalf("fresh store has %d LFs", st.NumLFs())
	}
	labelsLen := func() int { return st.DB().Table("labels").Len() }
	if labelsLen() != 0 {
		t.Fatal("labels relation must start empty")
	}
	col := st.AddLF(task.LFs[0])
	n1 := labelsLen()
	if n1 == 0 {
		t.Fatal("AddLF must materialize label rows")
	}
	// An always-abstain edit deletes the column's rows.
	if err := st.EditLF(col, labeling.LF{Name: "abstain", Fn: func(*candidates.Candidate) int { return 0 }}); err != nil {
		t.Fatal(err)
	}
	if labelsLen() != 0 {
		t.Fatalf("abstain edit left %d label rows", labelsLen())
	}
	// Restore the real LF; rows come back.
	if err := st.EditLF(col, task.LFs[0]); err != nil {
		t.Fatal(err)
	}
	if labelsLen() != n1 {
		t.Fatalf("re-edit rows = %d, want %d", labelsLen(), n1)
	}
	if err := st.EditLF(99, task.LFs[0]); err == nil {
		t.Fatal("editing a missing column must error")
	}
}
