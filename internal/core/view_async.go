package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/candidates"
	"repro/internal/features"
	"repro/internal/kbase"
	"repro/internal/labeling"
	"repro/internal/model"
	"repro/internal/obs"
)

// Two-phase (async) view publication. Store.View couples every epoch
// to a full retrain; the three functions here split that into the
// write-path half and the training half:
//
//   - Store.ViewDelta publishes a new epoch under the PREVIOUS view's
//     model: only the new documents are classified (with the current
//     generation's model and frozen index) and folded into the KB.
//     No training happens, so ingest latency is decoupled from model
//     cost.
//   - StoreView.Retrain trains a NEW model generation over the view's
//     corpus — optionally warm-started from a previous generation —
//     entirely from view state, so it can run off the writer
//     goroutine.
//   - StoreView.AdoptModel re-serves one view's corpus under another
//     view's model — the writer-side catch-up when a background
//     retrain finishes after further delta epochs have landed.
//
// The determinism contract: a view's served bytes are a pure function
// of its (epoch, generation) pair. Classification is per-candidate
// pure and KB dedup is first-wins in candidate-ID order, so delta
// classification over a prefix-identical predecessor is bit-identical
// to reclassifying the whole corpus (AdoptModel / a synchronous run)
// at the same pair — proven by TestViewDeltaMatchesAdopt and the
// serving layer's replay suite.

// deltaClassify extends prev's predicted-tuple list with the
// positives among cands[from:], classified under (m, ix) — the same
// threshold + first-wins dedup as classifyStage, continued from
// prev's seen-set. names are the per-candidate raw feature-name rows
// aligned with cands.
func deltaClassify(prevPredicted []GoldTuple, cands []*candidates.Candidate, names [][]string, from int, m *model.Model, ix *features.Index, threshold float64) []GoldTuple {
	predicted := append([]GoldTuple(nil), prevPredicted...)
	seen := make(map[string]bool, len(predicted))
	for _, t := range predicted {
		seen[t.Key()] = true
	}
	exs := make([]model.Example, 0, max(len(cands)-from, 0))
	for i := from; i < len(cands); i++ {
		var cols []int
		for _, n := range names[i] {
			if id, ok := ix.Lookup(n); ok {
				cols = append(cols, id)
			}
		}
		sort.Ints(cols)
		exs = append(exs, model.Example{Cand: cands[i], SparseFeats: cols})
	}
	probs := m.PredictProbs(exs)
	for k, p := range probs {
		i := from + k
		if p > threshold {
			t := TupleFromCandidate(cands[i])
			if !seen[t.Key()] {
				seen[t.Key()] = true
				predicted = append(predicted, t)
			}
		}
	}
	return predicted
}

// materializeKB builds a view's KB table from its predicted tuples.
func materializeKB(schema kbase.Schema, predicted []GoldTuple) (*kbase.Table, error) {
	kb := kbase.NewTable(schema)
	for _, t := range predicted {
		tup := make(kbase.Tuple, len(t.Values))
		for i, val := range t.Values {
			tup[i] = val
		}
		if _, err := kb.Insert(tup); err != nil {
			return nil, fmt.Errorf("core: materializing KB for view: %w", err)
		}
	}
	return kb, nil
}

// superviseView recomputes the denoised marginals (and LF metrics)
// over a full corpus's votes — epoch-scoped state, independent of the
// model generation, so delta epochs recompute it exactly as a
// synchronous run at the same epoch would.
func superviseView(opts Options, votes [][]int8, numLFs int) ([]float64, labeling.Metrics) {
	if opts.Marginals != nil {
		return opts.Marginals, labeling.Metrics{}
	}
	labels := labeling.MatrixFromVotes(votes, numLFs)
	marginals, _, metrics := superviseStage(opts, labels)
	return marginals, metrics
}

// ViewDelta builds the snapshot of the store at its current epoch
// WITHOUT retraining: the new documents since prev are classified
// under prev's model generation and appended to prev's KB. The
// resulting view serves epoch s.Epoch() at generation
// prev.Generation(), and its KB is bit-identical to reclassifying the
// whole corpus under that generation (classification is per-candidate
// pure and dedup is first-wins in candidate-ID order, so extending
// the prefix is equivalent).
//
// Like View, ViewDelta reads the store and must run on the writer
// goroutine. prev must be a view of this same store at an earlier (or
// equal) epoch with the same labeling functions installed — the
// serving layer's writer loop guarantees both.
func (s *Store) ViewDelta(prev *StoreView, gold []GoldTuple) (*StoreView, error) {
	s.beginMutation()
	defer s.endMutation(false)

	if prev == nil {
		return nil, fmt.Errorf("core: ViewDelta requires a previous view")
	}
	if prev.relation != s.task.Relation {
		return nil, fmt.Errorf("core: ViewDelta across relations (%q vs %q)", prev.relation, s.task.Relation)
	}
	if len(prev.lfNames) != len(s.lfs) {
		return nil, fmt.Errorf("core: labeling functions changed since the previous view (%d vs %d); rebuild with View", len(prev.lfNames), len(s.lfs))
	}
	if prev.NumDocs() > len(s.docs) {
		return nil, fmt.Errorf("core: previous view has %d docs, store has %d", prev.NumDocs(), len(s.docs))
	}

	names := s.DocNames()
	for i, n := range prev.docNames {
		if names[i] != n {
			return nil, fmt.Errorf("core: document order diverged at %d (%q vs %q)", i, names[i], n)
		}
	}

	// Hydrate only the delta documents; prev's candidates are shared
	// (immutable after ingestion, already hydrated into prev).
	t0 := time.Now()
	cands := prev.cands[:len(prev.cands):len(prev.cands)]
	for _, sd := range s.docs[prev.NumDocs():] {
		dc, err := s.docCandidates(sd)
		if err != nil {
			return nil, err
		}
		cands = append(cands, dc...)
	}
	hydrateSpan := obs.NewSpan("hydrateDelta", t0, len(s.docs)-prev.NumDocs(), len(cands)-len(prev.cands), 0)

	v := &StoreView{
		epoch:    s.epoch,
		relation: s.task.Relation,
		task:     s.task,
		opts:     s.opts,
		docNames: names,
		cands:    cands,
		names:    s.names[:len(cands):len(cands)],
		lfNames:  append([]string(nil), prev.lfNames...),

		generation:             prev.generation,
		modelEpoch:             prev.modelEpoch,
		trainedSessionFeatures: prev.trainedSessionFeatures,

		model:            prev.model,
		runIndex:         prev.runIndex,
		sessionIndex:     s.dict.Clone(),
		pendingFeatures:  len(s.pending),
		distinctFeatures: len(s.counts),
		tableRows:        map[string]int{},
	}
	for _, sd := range s.docs {
		v.splitStats.Hits += sd.stats.Hits
		v.splitStats.Misses += sd.stats.Misses
	}
	// Prev's vote rows are already private copies; only the delta
	// candidates' rows need copying out of the mutable store.
	v.votes = make([][]int8, len(s.votes))
	copy(v.votes, prev.votes)
	for i := len(prev.votes); i < len(s.votes); i++ {
		v.votes[i] = append([]int8(nil), s.votes[i]...)
	}
	for _, name := range s.db.Names() {
		v.tableRows[name] = s.db.Table(name).Len()
	}

	// Supervision is epoch state, not generation state: re-denoise
	// over the full label matrix, exactly as a synchronous run at this
	// epoch would.
	t0 = time.Now()
	var metrics labeling.Metrics
	v.marginals, metrics = superviseView(s.opts, v.votes, len(s.lfs))
	superviseSpan := obs.NewSpan("supervise", t0, len(cands), len(v.marginals), 0)

	// Classify only the delta under the inherited generation.
	t0 = time.Now()
	predicted := deltaClassify(prev.result.Predicted, cands, v.names, len(prev.cands), prev.model, prev.runIndex, s.opts.Threshold)
	classifySpan := obs.NewSpan("deltaClassify", t0, len(cands)-len(prev.cands), len(predicted)-len(prev.result.Predicted), 0)

	v.result = prev.result
	v.result.Predicted = predicted
	v.result.TrainCandidates = len(cands)
	v.result.TestCandidates = len(cands)
	v.result.LFMetrics = metrics
	v.result.CacheStats = features.CacheStats{Hits: 2 * v.splitStats.Hits, Misses: 2 * v.splitStats.Misses}
	// No training happened on this publish; a zero TrainStats keeps
	// the serving layer's train metrics from double-counting.
	v.result.TrainStats = model.TrainStats{}

	testDocs := map[string]bool{}
	for _, n := range names {
		testDocs[n] = true
	}
	v.result.Quality = EvaluateTuples(predicted, FilterGold(gold, testDocs))

	t0 = time.Now()
	kb, err := materializeKB(s.task.Schema, predicted)
	if err != nil {
		return nil, err
	}
	v.kb = kb
	v.spans = []obs.Span{hydrateSpan, superviseSpan, classifySpan,
		obs.NewSpan("materializeKB", t0, len(predicted), kb.Len(), 0)}
	v.storage = s.StorageStats()
	return v, nil
}

// RetrainConfig configures StoreView.Retrain.
type RetrainConfig struct {
	// Gold scopes the result's quality evaluation (as in RunSplit).
	Gold []GoldTuple
	// Generation stamps the produced view's model generation.
	Generation uint64
	// WarmFrom, when non-nil, warm-starts training from that view's
	// model: dense layers copy whole, embedding rows transfer by word,
	// sparse-head columns transfer through the two frozen feature
	// indexes. Nil trains from the deterministic cold initialization.
	WarmFrom *StoreView
}

// Retrain trains a new model generation over this view's corpus and
// returns a view serving the same epoch under the new generation. It
// is a pure function of the view (plus cfg): candidates, feature-name
// rows, and votes were captured at build time, so Retrain never
// touches the Store and is safe to run on a background goroutine
// while the writer keeps publishing delta epochs.
//
// The staged run is the same code path as Store.RunSplit with train =
// test = the full corpus, fed from the view's raw feature-name rows.
// Raw rows are equivalent to the store's materialized matrix rows
// here: the frozen run index admits features by train-split counts
// under the same MinFeatureCount floor the session matrix uses, so
// over the full corpus both stagings admit exactly the same columns
// (TestViewRetrainMatchesView pins this bitwise).
func (v *StoreView) Retrain(cfg RetrainConfig) (*StoreView, error) {
	sp := stagedSplit{cands: v.cands, names: v.names, stats: v.splitStats}
	var labels *labeling.Matrix
	if v.opts.Marginals == nil {
		labels = labeling.MatrixFromVotes(v.votes, len(v.lfNames))
	}
	testDocs := map[string]bool{}
	for _, n := range v.docNames {
		testDocs[n] = true
	}
	var warm *warmSource
	if cfg.WarmFrom != nil {
		warm = &warmSource{model: cfg.WarmFrom.model, index: cfg.WarmFrom.runIndex}
	}
	res, art := runStagesWarm(v.task, v.opts, sp, sp, labels, testDocs, cfg.Gold, warm)

	nv := *v
	nv.generation = cfg.Generation
	nv.modelEpoch = v.epoch
	nv.trainedSessionFeatures = v.sessionIndex.Len()
	nv.result = res
	nv.model = art.model
	nv.runIndex = art.index
	nv.marginals = art.marginals
	t0 := time.Now()
	kb, err := materializeKB(v.task.Schema, res.Predicted)
	if err != nil {
		return nil, err
	}
	nv.kb = kb
	nv.spans = append(append([]obs.Span(nil), art.spans...),
		obs.NewSpan("materializeKB", t0, len(res.Predicted), kb.Len(), 0))
	return &nv, nil
}

// AdoptModel re-serves this view's corpus under other's model
// generation: every candidate is reclassified with other's model and
// frozen index, rebuilding the KB from scratch (first-wins dedup in
// candidate-ID order — the canonical classification of this corpus
// under that generation). Epoch state (marginals, LF metrics, session
// index, storage counters) stays this view's; generation state
// (model, run index, training stats) becomes other's.
//
// Pure view-state function, used by the serving writer to catch a
// freshly trained generation up to delta epochs published while it
// trained — and by the equivalence tests as the from-scratch
// definition delta chains must match.
func (v *StoreView) AdoptModel(other *StoreView, gold []GoldTuple) (*StoreView, error) {
	if other == nil {
		return nil, fmt.Errorf("core: AdoptModel requires a trained view")
	}
	if other.relation != v.relation {
		return nil, fmt.Errorf("core: AdoptModel across relations (%q vs %q)", other.relation, v.relation)
	}
	t0 := time.Now()
	predicted := deltaClassify(nil, v.cands, v.names, 0, other.model, other.runIndex, v.opts.Threshold)
	classifySpan := obs.NewSpan("classify", t0, len(v.cands), len(predicted), 0)

	nv := *v
	nv.generation = other.generation
	nv.modelEpoch = other.modelEpoch
	nv.trainedSessionFeatures = other.trainedSessionFeatures
	nv.model = other.model
	nv.runIndex = other.runIndex
	nv.result.Predicted = predicted
	nv.result.NumFeatures = other.runIndex.Len()
	// Carry the training stats of the adopted generation: the publish
	// that installs it is the one that reports its training cost.
	nv.result.TrainStats = other.result.TrainStats
	testDocs := map[string]bool{}
	for _, n := range v.docNames {
		testDocs[n] = true
	}
	nv.result.Quality = EvaluateTuples(predicted, FilterGold(gold, testDocs))
	t0 = time.Now()
	kb, err := materializeKB(v.task.Schema, predicted)
	if err != nil {
		return nil, err
	}
	nv.kb = kb
	nv.spans = []obs.Span{classifySpan, obs.NewSpan("materializeKB", t0, len(predicted), kb.Len(), 0)}
	return &nv, nil
}
