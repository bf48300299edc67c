package model

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/candidates"
	"repro/internal/datamodel"
	"repro/internal/neural"
)

// makeExample fabricates a single-mention candidate whose sentence
// contains the cue word and whose sparse features are given.
func makeExample(id int, cue string, feats []int, marginal float64) Example {
	b := datamodel.NewBuilder(fmt.Sprintf("doc%d", id), "html")
	tx := b.AddText()
	p := b.AddParagraph(tx)
	s := b.AddSentence(p, []string{"the", "part", "X" + fmt.Sprint(id%7), "is", cue, "today"})
	b.Finish()
	c := &candidates.Candidate{
		ID:       id,
		Mentions: []candidates.Mention{{TypeName: "X", Span: datamodel.NewSpan(s, 2, 3)}},
	}
	return Example{Cand: c, SparseFeats: feats, Marginal: marginal}
}

// textualDataset labels by cue word only.
func textualDataset(n int) []Example {
	out := make([]Example, n)
	for i := range out {
		if i%2 == 0 {
			out[i] = makeExample(i, "excellent", nil, 1)
		} else {
			out[i] = makeExample(i, "terrible", nil, 0)
		}
	}
	return out
}

// sparseDataset labels by feature identity only (cue word neutral).
func sparseDataset(n int) []Example {
	out := make([]Example, n)
	for i := range out {
		if i%2 == 0 {
			out[i] = makeExample(i, "neutral", []int{3, 5}, 1)
		} else {
			out[i] = makeExample(i, "neutral", []int{7, 5}, 0)
		}
	}
	return out
}

func accuracy(m *Model, exs []Example) float64 {
	correct := 0
	for _, ex := range exs {
		if m.Classify(ex, 0.5) == (ex.Marginal > 0.5) {
			correct++
		}
	}
	return float64(correct) / float64(len(exs))
}

func TestTextModelLearnsTextualCue(t *testing.T) {
	exs := textualDataset(24)
	m := NewTextBiLSTM(1, 42, exs)
	st := m.Train(exs, TrainOptions{Epochs: 12, LR: 0.02})
	if st.FinalLoss > 0.3 {
		t.Fatalf("final loss = %v", st.FinalLoss)
	}
	if acc := accuracy(m, exs); acc < 0.95 {
		t.Fatalf("accuracy = %v", acc)
	}
	if st.SecsPerEpoch <= 0 || st.Epochs != 12 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSparseModelLearnsFeatureCue(t *testing.T) {
	exs := sparseDataset(24)
	m := NewHumanTuned(10, 42)
	m.Train(exs, TrainOptions{Epochs: 20, LR: 0.1})
	if acc := accuracy(m, exs); acc < 0.95 {
		t.Fatalf("accuracy = %v", acc)
	}
	// Text-only model cannot separate this dataset (all cues neutral):
	// accuracy stays near chance.
	tm := NewTextBiLSTM(1, 42, exs)
	tm.Train(exs, TrainOptions{Epochs: 5, LR: 0.02})
	if acc := accuracy(tm, exs); acc > 0.8 {
		t.Fatalf("text-only model should not learn sparse-only dataset, acc = %v", acc)
	}
}

func TestFonduerCombinesModalities(t *testing.T) {
	// Half the signal is textual, half is sparse: only the combined
	// model can get both subsets right.
	var exs []Example
	for i := 0; i < 12; i++ {
		if i%2 == 0 {
			exs = append(exs, makeExample(i, "excellent", []int{1}, 1))
		} else {
			exs = append(exs, makeExample(i, "terrible", []int{1}, 0))
		}
	}
	for i := 12; i < 24; i++ {
		if i%2 == 0 {
			exs = append(exs, makeExample(i, "neutral", []int{3}, 1))
		} else {
			exs = append(exs, makeExample(i, "neutral", []int{7}, 0))
		}
	}
	m := NewFonduer(1, 10, 42, exs)
	m.Train(exs, TrainOptions{Epochs: 25, LR: 0.03})
	if acc := accuracy(m, exs); acc < 0.9 {
		t.Fatalf("multimodal accuracy = %v", acc)
	}
}

func TestNoiseAwareTargets(t *testing.T) {
	// Soft labels around 0.5 should produce predictions near 0.5, not
	// saturate.
	var exs []Example
	for i := 0; i < 10; i++ {
		exs = append(exs, makeExample(i, "neutral", []int{2}, 0.55))
	}
	m := NewHumanTuned(5, 1)
	m.Train(exs, TrainOptions{Epochs: 30, LR: 0.05})
	p := m.PredictProb(exs[0])
	if math.Abs(p-0.55) > 0.1 {
		t.Fatalf("soft-label prediction = %v, want ~0.55", p)
	}
}

func TestDeterminism(t *testing.T) {
	exs := textualDataset(12)
	m1 := NewTextBiLSTM(1, 7, exs)
	m1.Train(exs, TrainOptions{Epochs: 3})
	m2 := NewTextBiLSTM(1, 7, exs)
	m2.Train(exs, TrainOptions{Epochs: 3})
	for _, ex := range exs {
		a, b := m1.PredictProb(ex), m2.PredictProb(ex)
		if math.Abs(a-b) > 1e-12 {
			t.Fatalf("non-deterministic: %v vs %v", a, b)
		}
	}
}

func TestDocRNNRunsAndIsSlower(t *testing.T) {
	exs := textualDataset(8)
	doc := NewDocRNN(42, exs, 100)
	stDoc := doc.Train(exs, TrainOptions{Epochs: 2})
	if stDoc.SecsPerEpoch <= 0 {
		t.Fatal("doc RNN stats")
	}
	for _, ex := range exs {
		p := doc.PredictProb(ex)
		if p < 0 || p > 1 {
			t.Fatalf("prob = %v", p)
		}
	}
}

func TestMaxPoolVariant(t *testing.T) {
	exs := textualDataset(16)
	m := NewMaxPoolText(1, 42, exs)
	m.Train(exs, TrainOptions{Epochs: 12, LR: 0.02})
	if acc := accuracy(m, exs); acc < 0.8 {
		t.Fatalf("maxpool accuracy = %v", acc)
	}
}

func TestSRVVariant(t *testing.T) {
	exs := sparseDataset(16)
	m := NewSRV(10, 3)
	m.Train(exs, TrainOptions{Epochs: 15, LR: 0.1})
	if acc := accuracy(m, exs); acc < 0.9 {
		t.Fatalf("srv accuracy = %v", acc)
	}
}

func TestFrozenVocabHandlesUnseenWords(t *testing.T) {
	exs := textualDataset(8)
	m := NewTextBiLSTM(1, 42, exs)
	m.Train(exs, TrainOptions{Epochs: 2})
	unseen := makeExample(99, "zzznever", nil, 1)
	p := m.PredictProb(unseen)
	if p < 0 || p > 1 || math.IsNaN(p) {
		t.Fatalf("unseen-word prob = %v", p)
	}
}

func TestOutOfRangeSparseFeaturesIgnored(t *testing.T) {
	ex := makeExample(0, "x", []int{-1, 999999}, 1)
	m := NewHumanTuned(5, 1)
	p := m.PredictProb(ex)
	if math.IsNaN(p) {
		t.Fatal("NaN")
	}
}

func TestParamCount(t *testing.T) {
	exs := textualDataset(4)
	m := NewFonduer(1, 100, 1, exs)
	if m.ParamCount() <= 0 {
		t.Fatal("param count")
	}
	sparseOnly := NewHumanTuned(100, 1)
	if sparseOnly.ParamCount() != 2*100+2 {
		t.Fatalf("sparse-only params = %d", sparseOnly.ParamCount())
	}
}

// mixedDataset combines textual and sparse signal so the Fonduer
// variant exercises every parameter group (embeddings, Bi-LSTM,
// attention, both heads) during the equivalence tests below.
func mixedDataset(n int) []Example {
	out := make([]Example, n)
	for i := range out {
		cue := "excellent"
		feats := []int{1, 3}
		marginal := 1.0
		if i%2 == 1 {
			cue, feats, marginal = "terrible", []int{2, 7}, 0
		}
		out[i] = makeExample(i, cue, feats, marginal)
	}
	return out
}

// weights snapshots every trainable scalar in params order.
func weights(m *Model) [][]float64 {
	out := make([][]float64, len(m.params))
	for i, p := range m.params {
		out[i] = append([]float64(nil), p.W...)
	}
	return out
}

// mustEqualWeights asserts two snapshots are bitwise identical.
func mustEqualWeights(t *testing.T, label string, a, b [][]float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: param group count %d vs %d", label, len(a), len(b))
	}
	for p := range a {
		for i := range a[p] {
			if a[p][i] != b[p][i] {
				t.Fatalf("%s: param %d[%d]: %v vs %v", label, p, i, a[p][i], b[p][i])
			}
		}
	}
}

// referenceTrain is the pre-minibatch sequential loop — one tape, one
// gradient accumulation and one Adam step per example — kept verbatim
// as the trajectory oracle for the Batch=1 equivalence contract.
func referenceTrain(m *Model, examples []Example, opts TrainOptions) float64 {
	opts.defaults()
	optim := neural.NewAdam(opts.LR)
	optim.WeightDecay = opts.L2
	order := make([]int, len(examples))
	for i := range order {
		order[i] = i
	}
	var lastLoss float64
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		optim.LR = opts.LR / (1 + opts.LRDecay*float64(epoch))
		m.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		total := 0.0
		for _, idx := range order {
			ex := examples[idx]
			m.params.ZeroGrad()
			tp := neural.NewTape()
			logits := m.forward(tp, ex)
			loss, node := neural.NoiseAwareCE(tp, logits, ex.Marginal)
			tp.Backward(node)
			m.params.ClipGrad(opts.Clip)
			optim.Step(m.params)
			total += loss
		}
		if len(examples) > 0 {
			lastLoss = total / float64(len(examples))
		}
	}
	return lastLoss
}

// TestTrainBatch1MatchesSequentialReference pins the tentpole's
// backward-compatibility contract: minibatch training at Batch=1 must
// reproduce the pre-parallel per-example trajectory exactly — same
// weights bit for bit, same reported loss — at any worker count.
func TestTrainBatch1MatchesSequentialReference(t *testing.T) {
	exs := mixedDataset(12)
	ref := NewFonduer(1, 10, 99, exs)
	refLoss := referenceTrain(ref, exs, TrainOptions{Epochs: 3, LR: 0.02})
	want := weights(ref)

	for _, workers := range []int{1, 2, 8} {
		m := NewFonduer(1, 10, 99, exs)
		st := m.Train(exs, TrainOptions{Epochs: 3, LR: 0.02, Batch: 1, Workers: workers})
		mustEqualWeights(t, fmt.Sprintf("workers=%d", workers), want, weights(m))
		if st.FinalLoss != refLoss {
			t.Fatalf("workers=%d: FinalLoss %v, reference %v", workers, st.FinalLoss, refLoss)
		}
	}
}

// TestTrainWorkerDeterminism asserts the paper-repo determinism
// contract at the model layer: identical weights across workers
// {1,2,8} at a minibatch size that actually exercises the parallel
// reduction, and across repeated runs with a fixed seed.
func TestTrainWorkerDeterminism(t *testing.T) {
	exs := mixedDataset(16)
	train := func(workers int) [][]float64 {
		m := NewFonduer(1, 10, 7, exs)
		m.Train(exs, TrainOptions{Epochs: 3, LR: 0.02, Batch: 4, Workers: workers})
		return weights(m)
	}
	want := train(1)
	for _, workers := range []int{2, 8} {
		mustEqualWeights(t, fmt.Sprintf("workers=%d", workers), want, train(workers))
	}
	// Repeated run, same seed: the rng-driven shuffle stream must make
	// the whole trajectory reproducible.
	mustEqualWeights(t, "repeat", want, train(1))
}

// TestTrainBatchChangesTrajectory guards against Batch being silently
// ignored: averaging gradients over 4 examples must produce different
// weights than 4 separate Adam steps.
func TestTrainBatchChangesTrajectory(t *testing.T) {
	exs := mixedDataset(16)
	m1 := NewFonduer(1, 10, 7, exs)
	m1.Train(exs, TrainOptions{Epochs: 2, LR: 0.02, Batch: 1})
	m4 := NewFonduer(1, 10, 7, exs)
	m4.Train(exs, TrainOptions{Epochs: 2, LR: 0.02, Batch: 4})
	a, b := weights(m1), weights(m4)
	for p := range a {
		for i := range a[p] {
			if a[p][i] != b[p][i] {
				return
			}
		}
	}
	t.Fatal("Batch=4 trained identically to Batch=1")
}

// TestLRDecayOverride covers the zero-value-sentinel bugfix: LRDecay=0
// silently meant "default 0.15", so decay could never be turned off.
// LRDecayOverride(0) must hold the learning rate constant across
// epochs — a different trajectory from the default — while
// LRDecayOverride(0.15) must reproduce the default bitwise.
func TestLRDecayOverride(t *testing.T) {
	exs := mixedDataset(12)
	zero, def := 0.0, 0.15

	mDefault := NewFonduer(1, 10, 5, exs)
	mDefault.Train(exs, TrainOptions{Epochs: 3, LR: 0.02})
	mExplicit := NewFonduer(1, 10, 5, exs)
	mExplicit.Train(exs, TrainOptions{Epochs: 3, LR: 0.02, LRDecayOverride: &def})
	mustEqualWeights(t, "override(0.15) == default", weights(mDefault), weights(mExplicit))

	mOff := NewFonduer(1, 10, 5, exs)
	mOff.Train(exs, TrainOptions{Epochs: 3, LR: 0.02, LRDecayOverride: &zero})
	a, b := weights(mDefault), weights(mOff)
	for p := range a {
		for i := range a[p] {
			if a[p][i] != b[p][i] {
				return
			}
		}
	}
	t.Fatal("LRDecayOverride(0) trained identically to the default decay")
}

// TestTrainStepSteadyStateAllocs pins the allocation-free training
// step: once a slot's tape has grown to the largest example, a forward
// and backward pass over any example allocates nothing.
func TestTrainStepSteadyStateAllocs(t *testing.T) {
	exs := goldenDataset(8)
	for _, tc := range []struct {
		name string
		m    *Model
	}{
		{"fonduer", NewFonduer(1, 10, 3, exs)},
		{"maxpool", NewMaxPoolText(1, 3, exs)},
		{"doc-rnn", NewDocRNN(3, exs, 24)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			slot := &trainSlot{model: tc.m.shadow(), tape: neural.NewTape()}
			seqs := make([][][]int, len(exs))
			for i, ex := range exs {
				seqs[i] = tc.m.seqs(ex)
				slot.step(seqs[i], ex)
			}
			i := 0
			allocs := testing.AllocsPerRun(20, func() {
				k := i % len(exs)
				slot.step(seqs[k], exs[k])
				i++
			})
			if allocs > 0 {
				t.Fatalf("steady-state training step allocates %v times, want 0", allocs)
			}
		})
	}
}

// TestPredictProbsMatchesPredictProb checks the batch inference path
// against per-example calls, including examples of different lengths
// sharing one tape.
func TestPredictProbsMatchesPredictProb(t *testing.T) {
	exs := goldenDataset(10)
	m := NewFonduer(1, 10, 4, exs)
	m.Train(exs, TrainOptions{Epochs: 1})
	got := m.PredictProbs(exs)
	if len(got) != len(exs) {
		t.Fatalf("PredictProbs returned %d probabilities for %d examples", len(got), len(exs))
	}
	for i, ex := range exs {
		if want := m.PredictProb(ex); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("example %d: batch %v, single %v", i, got[i], want)
		}
	}
	if len(m.PredictProbs(nil)) != 0 {
		t.Fatal("PredictProbs(nil) must be empty")
	}
}
