package core_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/synth"
)

// The async-publication equivalence suite at the core level. The
// serving layer's replay test proves the end-to-end property over
// HTTP; these tests pin the three primitives it is built from:
//
//   - Retrain over a view's raw feature-name rows reproduces the
//     synchronous View pipeline bitwise (raw staging ≡ matrix staging).
//   - A ViewDelta chain serves the same bytes as reclassifying the
//     whole corpus under the inherited generation (AdoptModel).
//   - Warm-started training is a pure deterministic function of
//     (view, config).

// TestViewRetrainMatchesView: a delta view cold-retrained at epoch e
// must be bit-identical to the synchronous st.View at the same epoch —
// same Result, same KB. This is the lemma that lets the background
// trainer feed runStages from the view's raw feature-name rows instead
// of the store's materialized matrix.
func TestViewRetrainMatchesView(t *testing.T) {
	corpus := synth.Electronics(71, 8)
	task := corpus.Tasks[0]
	gold := corpus.GoldTuples[task.Relation]
	opts := core.Options{Seed: 7, Epochs: 2, Workers: 2}

	st := newStore(t, task, opts)
	if err := st.AddDocuments(corpus.Docs[:4]...); err != nil {
		t.Fatal(err)
	}
	v1, err := st.View(gold)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AddDocuments(corpus.Docs[4:]...); err != nil {
		t.Fatal(err)
	}
	delta, err := st.ViewDelta(v1, gold)
	if err != nil {
		t.Fatal(err)
	}
	if delta.Epoch() != 2 || delta.Generation() != v1.Generation() {
		t.Fatalf("delta at (epoch %d, generation %d), want (2, %d)", delta.Epoch(), delta.Generation(), v1.Generation())
	}

	sync, err := st.View(gold)
	if err != nil {
		t.Fatal(err)
	}
	retrained, err := delta.Retrain(core.RetrainConfig{Gold: gold, Generation: 1})
	if err != nil {
		t.Fatal(err)
	}
	if retrained.Generation() != 1 || retrained.ModelTrainedAtEpoch() != 2 {
		t.Fatalf("retrained stamps = (gen %d, trainedAt %d)", retrained.Generation(), retrained.ModelTrainedAtEpoch())
	}

	got := normalizeResult(retrained.Result())
	want := normalizeResult(sync.Result())
	// The synchronous view reports the store's cache traffic for its
	// own hydration; the retrain reuses candidates captured at view
	// build time, so cache counters are the one legitimate divergence.
	got.CacheStats = want.CacheStats
	if want.TrainCandidates == 0 || want.NumFeatures == 0 {
		t.Fatalf("degenerate baseline: %+v", want)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Retrain differs from synchronous View\n got: %+v\nwant: %+v", got, want)
	}
	if !reflect.DeepEqual(retrained.KB().Tuples(), sync.KB().Tuples()) {
		t.Error("Retrain KB differs from synchronous View KB")
	}
	if len(retrained.Result().Predicted) == 0 {
		t.Fatal("no tuples predicted; test is vacuous")
	}
}

// TestViewDeltaMatchesAdopt: however the corpus is split into delta
// epochs, the chain's served tuples equal the canonical full
// reclassification of the same corpus under the same generation
// (AdoptModel) — the prefix-extension lemma behind delta publication.
func TestViewDeltaMatchesAdopt(t *testing.T) {
	corpus := synth.Electronics(72, 9)
	task := corpus.Tasks[0]
	gold := corpus.GoldTuples[task.Relation]
	opts := core.Options{Seed: 3, Epochs: 2, Workers: 2}

	st := newStore(t, task, opts)
	if err := st.AddDocuments(corpus.Docs[:3]...); err != nil {
		t.Fatal(err)
	}
	base, err := st.View(gold)
	if err != nil {
		t.Fatal(err)
	}

	chain := base
	for _, hi := range []int{6, 9} {
		if err := st.AddDocuments(corpus.Docs[len(chain.DocNames()):hi]...); err != nil {
			t.Fatal(err)
		}
		chain, err = st.ViewDelta(chain, gold)
		if err != nil {
			t.Fatal(err)
		}
		adopt, err := chain.AdoptModel(base, gold)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(chain.Result().Predicted, adopt.Result().Predicted) {
			t.Errorf("epoch %d: delta chain predicted %d tuples, full reclassification %d — sets differ",
				chain.Epoch(), len(chain.Result().Predicted), len(adopt.Result().Predicted))
		}
		if !reflect.DeepEqual(chain.KB().Tuples(), adopt.KB().Tuples()) {
			t.Errorf("epoch %d: delta chain KB differs from AdoptModel KB", chain.Epoch())
		}
		if adopt.Generation() != base.Generation() || adopt.Epoch() != chain.Epoch() {
			t.Errorf("adopt stamps = (epoch %d, gen %d), want (%d, %d)",
				adopt.Epoch(), adopt.Generation(), chain.Epoch(), base.Generation())
		}
	}
	if len(chain.Result().Predicted) == 0 {
		t.Fatal("no tuples predicted; test is vacuous")
	}
}

// TestViewRetrainWarmDeterminism: warm-started retraining is a pure
// function — two retrains of the same view with the same config (same
// warm source, same generation) produce identical predictions, quality
// and feature counts; and a warm retrain still reports the new
// generation's stamps.
func TestViewRetrainWarmDeterminism(t *testing.T) {
	corpus := synth.Electronics(73, 8)
	task := corpus.Tasks[0]
	gold := corpus.GoldTuples[task.Relation]
	opts := core.Options{Seed: 5, Epochs: 2, Workers: 2}

	st := newStore(t, task, opts)
	if err := st.AddDocuments(corpus.Docs[:4]...); err != nil {
		t.Fatal(err)
	}
	base, err := st.View(gold)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AddDocuments(corpus.Docs[4:]...); err != nil {
		t.Fatal(err)
	}
	delta, err := st.ViewDelta(base, gold)
	if err != nil {
		t.Fatal(err)
	}

	cfg := core.RetrainConfig{Gold: gold, Generation: 1, WarmFrom: base}
	a, err := delta.Retrain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := delta.Retrain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalizeResult(a.Result()), normalizeResult(b.Result())) {
		t.Error("warm retrain is not deterministic: two runs differ")
	}
	if !reflect.DeepEqual(a.KB().Tuples(), b.KB().Tuples()) {
		t.Error("warm retrain KBs differ between identical runs")
	}
	if a.Generation() != 1 || a.ModelTrainedAtEpoch() != delta.Epoch() {
		t.Fatalf("warm retrain stamps = (gen %d, trainedAt %d)", a.Generation(), a.ModelTrainedAtEpoch())
	}
	if len(a.Result().Predicted) == 0 {
		t.Fatal("no tuples predicted; test is vacuous")
	}
}
