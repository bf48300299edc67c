package core_test

import (
	"reflect"
	"testing"

	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/labeling"
	"repro/internal/sparse"
	"repro/internal/synth"
)

func elecSession(t *testing.T) (*core.DevSession, core.Task) {
	t.Helper()
	corpus := synth.Electronics(51, 10)
	task := corpus.Tasks[0]
	s := core.NewDevSession(task, corpus.Docs)
	closeAtEnd(t, s.Store())
	return s, task
}

func TestDevSessionIterativeLoop(t *testing.T) {
	s, task := elecSession(t)
	if len(s.Candidates()) == 0 {
		t.Fatal("no candidates extracted")
	}
	// Register a gold holdout over every candidate (cheap here; a user
	// would label a sample).
	holdout := map[int]bool{}
	for _, c := range s.Candidates() {
		holdout[c.ID] = task.Gold(c)
	}
	s.SetHoldout(holdout)

	// Iteration 0: no LFs -> all marginals at the prior, accuracy is
	// whatever the negative base rate gives.
	if s.NumLFs() != 0 {
		t.Fatal("fresh session has LFs")
	}
	base := s.EstimateAccuracy()

	// Iteration 1: add the task's LFs one at a time; accuracy must end
	// higher than the no-LF baseline and errors must shrink.
	for _, lf := range task.LFs {
		s.AddLF(lf)
	}
	if s.NumLFs() != len(task.LFs) {
		t.Fatalf("NumLFs = %d", s.NumLFs())
	}
	acc := s.EstimateAccuracy()
	if acc <= base {
		t.Fatalf("accuracy did not improve: %v -> %v", base, acc)
	}
	if acc < 0.9 {
		t.Fatalf("full-pool accuracy = %v", acc)
	}
	met := s.Metrics()
	if met.Coverage <= 0.5 {
		t.Fatalf("coverage = %v", met.Coverage)
	}
	if len(s.Errors()) > len(s.Candidates())/10 {
		t.Fatalf("errors = %d of %d", len(s.Errors()), len(s.Candidates()))
	}

	// Iteration 2: sabotage one LF (always-positive), watch accuracy
	// drop, then repair it via EditLF.
	bad := labeling.LF{Name: "always-true", Fn: func(*candidates.Candidate) int { return 1 }}
	col := s.AddLF(bad)
	accBad := s.EstimateAccuracy()
	if err := s.EditLF(col, task.LFs[0]); err != nil {
		t.Fatal(err)
	}
	accFixed := s.EstimateAccuracy()
	if accFixed < accBad {
		t.Fatalf("repairing the LF should not hurt: %v -> %v", accBad, accFixed)
	}
	// Remove it entirely; session still works.
	if err := s.RemoveLF(col); err != nil {
		t.Fatal(err)
	}
	if err := s.EditLF(99, bad); err == nil {
		t.Fatal("editing a missing column must error")
	}

	// Finalize returns a copy.
	final := s.Finalize()
	if len(final) != s.NumLFs() {
		t.Fatalf("finalized %d LFs", len(final))
	}
	final[0] = bad
	if s.Finalize()[0].Name == "always-true" {
		t.Fatal("Finalize must copy")
	}
}

func TestDevSessionNoHoldout(t *testing.T) {
	s, _ := elecSession(t)
	if s.EstimateAccuracy() != 0 {
		t.Fatal("no-holdout accuracy must be 0")
	}
	if got := s.Errors(); len(got) != 0 {
		t.Fatalf("no-holdout errors = %d", len(got))
	}
}

func TestMostUncertain(t *testing.T) {
	corpus := synth.Electronics(52, 6)
	task := corpus.Tasks[0]
	ext := &candidates.Extractor{Args: task.Args, Scope: candidates.DocumentScope, Throttlers: task.Throttlers}
	cands := ext.ExtractAll(corpus.Docs)
	marg := make([]float64, len(cands))
	for i := range marg {
		marg[i] = float64(i%10) / 10 // 0.0 .. 0.9
	}
	top := core.MostUncertain(cands, marg, 3)
	if len(top) != 3 {
		t.Fatalf("top = %d", len(top))
	}
	// 0.5 is the most uncertain marginal.
	if top[0].Marginal != 0.5 {
		t.Fatalf("most uncertain marginal = %v", top[0].Marginal)
	}
	if top[0].Uncertainty() != 1 {
		t.Fatalf("uncertainty at 0.5 = %v", top[0].Uncertainty())
	}
	// k <= 0 returns everything.
	all := core.MostUncertain(cands, marg, 0)
	if len(all) != len(cands) {
		t.Fatalf("all = %d", len(all))
	}
	// Deterministic order.
	again := core.MostUncertain(cands, marg, 3)
	if !reflect.DeepEqual(top, again) {
		t.Fatal("not deterministic")
	}
}

func TestDisagreementWithGold(t *testing.T) {
	corpus := synth.Electronics(53, 6)
	task := corpus.Tasks[0]
	ext := &candidates.Extractor{Args: task.Args, Scope: candidates.DocumentScope, Throttlers: task.Throttlers}
	cands := ext.ExtractAll(corpus.Docs)
	// Marginals that are exactly wrong everywhere.
	marg := make([]float64, len(cands))
	for i, c := range cands {
		if task.Gold(c) {
			marg[i] = 0.1
		} else {
			marg[i] = 0.9
		}
	}
	wrong := core.DisagreementWithGold(cands, marg, task.Gold)
	if len(wrong) != len(cands) {
		t.Fatalf("disagreements = %d of %d", len(wrong), len(cands))
	}
	// Flip to all-correct: no disagreements.
	for i := range marg {
		marg[i] = 1 - marg[i]
	}
	if got := core.DisagreementWithGold(cands, marg, task.Gold); len(got) != 0 {
		t.Fatalf("correct marginals disagreements = %d", len(got))
	}
}

func TestParallelExtractMatchesSequential(t *testing.T) {
	corpus := synth.Electronics(54, 12)
	task := corpus.Tasks[0]
	seq := &candidates.Extractor{Args: task.Args, Scope: candidates.DocumentScope, Throttlers: task.Throttlers}
	want := seq.ExtractAll(corpus.Docs)
	for _, workers := range []int{1, 4, 0} {
		got := core.ParallelExtract(task, corpus.Docs, candidates.DocumentScope, true, workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d candidates, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i].Key() != want[i].Key() || got[i].ID != i {
				t.Fatalf("workers=%d: candidate %d mismatch", workers, i)
			}
		}
	}
}

func TestParallelFeaturizeMatchesSequential(t *testing.T) {
	corpus := synth.Electronics(55, 8)
	task := corpus.Tasks[0]
	ext := &candidates.Extractor{Args: task.Args, Scope: candidates.DocumentScope, Throttlers: task.Throttlers}
	cands := ext.ExtractAll(corpus.Docs)

	ix := features.NewIndex()
	fx := features.NewExtractor()
	want := sparse.NewLIL()
	features.FeaturizeAll(fx, ix, cands, want)
	ix.Freeze()

	for _, workers := range []int{1, 4, 0} {
		got, stats := core.ParallelFeaturize(features.NewExtractor, ix, cands, workers)
		if got.NNZ() != want.NNZ() || got.Rows() != want.Rows() {
			t.Fatalf("workers=%d: parallel NNZ=%d rows=%d, want NNZ=%d rows=%d",
				workers, got.NNZ(), got.Rows(), want.NNZ(), want.Rows())
		}
		for r := 0; r < want.Rows(); r++ {
			if !reflect.DeepEqual(got.Row(r), want.Row(r)) {
				t.Fatalf("workers=%d: row %d differs", workers, r)
			}
		}
		if stats.Hits+stats.Misses == 0 {
			t.Fatalf("workers=%d: no cache activity reported", workers)
		}
	}
}

// normalizeResult zeroes the wall-clock training timings, the only
// Result fields that legitimately vary between identical runs.
func normalizeResult(r core.Result) core.Result {
	r.TrainStats.SecsPerEpoch = 0
	r.TrainStats.TotalDuration = 0
	return r
}

// TestRunParallelEquivalence is the tentpole determinism guarantee:
// the full pipeline must produce a bit-identical Result at any worker
// count — candidate IDs dense in corpus order, the feature index in
// sorted-name order, the label matrix in candidate order.
func TestRunParallelEquivalence(t *testing.T) {
	corpus := synth.Electronics(56, 12)
	task := corpus.Tasks[0]
	train, test := corpus.Split()
	gold := corpus.GoldTuples[task.Relation]

	run := func(workers int) core.Result {
		return normalizeResult(core.Run(task, train, test, gold,
			core.Options{Seed: 7, Epochs: 3, Workers: workers}))
	}
	want := run(1)
	if want.TrainCandidates == 0 || want.NumFeatures == 0 {
		t.Fatalf("degenerate baseline: %+v", want)
	}
	for _, workers := range []int{2, 8, 0} {
		got := run(workers)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: Result differs from sequential\n got: %+v\nwant: %+v", workers, got, want)
		}
	}
}

// TestRunParallelEquivalenceAblations checks the determinism guarantee
// holds with the pipeline's ablation knobs switched on (majority vote,
// disabled modalities, no feature cache).
func TestRunParallelEquivalenceAblations(t *testing.T) {
	corpus := synth.Electronics(57, 10)
	task := corpus.Tasks[0]
	train, test := corpus.Split()
	gold := corpus.GoldTuples[task.Relation]
	opts := core.Options{
		Seed: 9, Epochs: 2, MajorityVote: true, NoFeatureCache: true,
		DisabledModalities: []features.Modality{features.Visual},
	}
	run := func(workers int) core.Result {
		o := opts
		o.Workers = workers
		return normalizeResult(core.Run(task, train, test, gold, o))
	}
	want := run(1)
	for _, workers := range []int{2, 8} {
		if got := run(workers); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: ablated Result differs from sequential", workers)
		}
	}
}
