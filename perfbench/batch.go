package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/datamodel"
	"repro/internal/features"
	"repro/internal/labeling"
)

// batch_kbc: the paper's batch run. One pass parses 48 generated
// documents from their bytes and runs core.Run on the alternate
// train/test split with 8 epochs; passes run back to back until the
// timed phase ends, cycling over the run's corpora. No HTTP, no
// storage engine: training dominates.

const (
	batchDocs    = 48
	batchEpochs  = 8
	batchCorpora = 3
)

// batchSplit is the pass's fixed split of document positions.
type batchSplit struct {
	train, test []int
}

func newBatchSplit(in inputs) batchSplit {
	pos := make(map[string]int, len(in.names))
	for i, n := range in.names {
		pos[n] = i
	}
	trainNames, testNames := core.AlternateSplit(in.names)
	var sp batchSplit
	for _, n := range trainNames {
		sp.train = append(sp.train, pos[n])
	}
	for _, n := range testNames {
		sp.test = append(sp.test, pos[n])
	}
	return sp
}

func pick(docs []*datamodel.Document, idx []int) []*datamodel.Document {
	out := make([]*datamodel.Document, len(idx))
	for i, j := range idx {
		out[i] = docs[j]
	}
	return out
}

// batchLayers is what one traced pass measured per layer.
type batchLayers struct {
	pipelineMs                   float64
	parseMsPerDoc                float64
	extractMsPerDoc, candsPerDoc float64
	featMsPerCand, cacheHitRate  float64
	applyMs, fitMs, metricsMs    float64
	trainMs, msPerEpoch, allocMB float64
}

func runBatch(cfg config, tr *tracer) (*report, error) {
	rep := newReport()
	ins := make([]inputs, batchCorpora)
	splits := make([]batchSplit, batchCorpora)
	var setups []float64
	for k := range ins {
		t0 := time.Now()
		ins[k] = genInputs(corpusSeed(cfg.seed, k), batchDocs)
		setups = append(setups, time.Since(t0).Seconds())
		splits[k] = newBatchSplit(ins[k])
		rep.note("inputs %d: %d documents, %d bytes, sha256 %s", k, len(ins[k].names), ins[k].bytes(), ins[k].hash())
	}
	rep.note("setup: seconds %v", setups)
	opts := core.Options{Epochs: batchEpochs, Seed: cfg.seed, Workers: cfg.workers}

	// first holds each corpus's first result; later passes over the
	// same corpus must match it.
	first := make([]*core.Result, batchCorpora)
	// lastDocs keeps the last pass's parsed corpus alive, so the heap
	// measured after the timed phase holds one pass's working state.
	var lastDocs []*datamodel.Document
	var passMs, tracedMs []float64
	var layers []batchLayers
	rt0 := readRuntime()
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	minPasses := batchCorpora
	if tr != nil {
		minPasses = 2 * batchCorpora // every corpus traced and untraced
	}
	for pass := 0; pass < minPasses || time.Now().Before(deadline); pass++ {
		k := pass % batchCorpora
		rep.attempted++
		var res core.Result
		var err error
		if tr != nil && pass%2 == 1 {
			var l batchLayers
			res, l, lastDocs, err = tracedBatchPass(ins[k], splits[k], opts, tr, pass)
			if err == nil {
				layers = append(layers, l)
				tracedMs = append(tracedMs, l.pipelineMs)
			}
		} else {
			t0 := time.Now()
			res, lastDocs, err = batchPass(ins[k], splits[k], opts)
			passMs = append(passMs, msSince(t0))
		}
		if err != nil {
			rep.failed++
			rep.problem("pass %d: %v", pass, err)
			continue
		}
		if first[k] == nil {
			first[k] = &res
			if err := checkF1(res.Quality.F1); err != nil {
				rep.problem("pass %d: %v", pass, err)
			}
		} else if err := checkPass(*first[k], res); err != nil {
			rep.failed++
			rep.problem("pass %d: %v", pass, err)
		}
	}
	elapsed := time.Since(start)
	rt1 := readRuntime()
	heap := heapLiveMB()
	runtime.KeepAlive(lastDocs)
	for k, f := range first {
		if f == nil {
			return nil, fmt.Errorf("no pass over corpus %d completed: %v", k, rep.problems)
		}
		rep.note("batch: corpus %d: %d train / %d test candidates; %d predicted tuples; kb_f1 %.4f",
			k, f.TrainCandidates, f.TestCandidates, len(f.Predicted), f.Quality.F1)
	}

	n := len(passMs)
	rep.setE2E("setup_s", median(setups), "s", len(setups), "input generation")
	rep.setE2E("docs_per_s", batchDocs/(median(passMs)/1e3), "doc/s", n, "batch_docs_per_s at the median pass")
	rep.setE2E("op_p50_ms", median(passMs), "ms", n, "batch pass p50")
	rep.setE2E("op_p95_ms", quantile(passMs, 0.95), "ms", n, "batch pass p95")
	rep.setE2E("write_p50_ms", median(passMs), "ms", n, "batch pass p50")
	rep.setE2E("heap_live_mb", heap, "MB", 1, "live heap holding the last pass's parsed corpus")
	rep.note("batch: %d passes in %.1f s over %d corpora; untraced pass ms %.1f", rep.attempted, elapsed.Seconds(), batchCorpora, passMs)

	if tr != nil {
		med := func(f func(batchLayers) float64) float64 {
			xs := make([]float64, len(layers))
			for i, l := range layers {
				xs[i] = f(l)
			}
			return median(xs)
		}
		rep.setLayer("parser.parse_ms_per_doc", med(func(l batchLayers) float64 { return l.parseMsPerDoc }), "ms")
		rep.setLayer("candidates.extract_ms_per_doc", med(func(l batchLayers) float64 { return l.extractMsPerDoc }), "ms")
		rep.setLayer("candidates.cands_per_doc", med(func(l batchLayers) float64 { return l.candsPerDoc }), "count")
		rep.setLayer("features.featurize_ms_per_cand", med(func(l batchLayers) float64 { return l.featMsPerCand }), "ms")
		rep.setLayer("features.cache_hit_rate", med(func(l batchLayers) float64 { return l.cacheHitRate }), "ratio")
		rep.setLayer("labeling.apply_ms", med(func(l batchLayers) float64 { return l.applyMs }), "ms")
		rep.setLayer("labeling.fit_ms", med(func(l batchLayers) float64 { return l.fitMs }), "ms")
		rep.setLayer("labeling.metrics_ms", med(func(l batchLayers) float64 { return l.metricsMs }), "ms")
		rep.setLayer("model.train_ms", med(func(l batchLayers) float64 { return l.trainMs }), "ms")
		rep.setLayer("model.ms_per_epoch", med(func(l batchLayers) float64 { return l.msPerEpoch }), "ms")
		rep.setLayer("model.alloc_mb", med(func(l batchLayers) float64 { return l.allocMB }), "MB")
		rep.setLayer("go.gc_cpu_fraction", gcFraction(rt0, rt1), "ratio")
		rep.setLayer("go.alloc_mb_per_op", allocMB(rt0, rt1)/float64(rep.attempted), "MB")
		rep.setLayer("bench.trace_overhead_pct", overheadPct(tracedMs, passMs), "%")
		fillAbsentLayers(rep)
	}
	return rep, nil
}

// batchPass is one untraced pass: parse, then core.Run.
func batchPass(in inputs, split batchSplit, opts core.Options) (core.Result, []*datamodel.Document, error) {
	docs, err := in.parseRange(0, len(in.names), nil, 0, 0)
	if err != nil {
		return core.Result{}, nil, err
	}
	return core.Run(in.task, pick(docs, split.train), pick(docs, split.test), in.gold, opts), docs, nil
}

// tracedBatchPass is the same pass with a span around every public
// call: the parser functions, core.ParallelExtract per split and
// core.RunWithCandidates (which is what core.Run does), with the
// training time TrainStats reports as a child. Outside the pipeline
// span it then probes the layers core.Run does not expose —
// ParallelCountFeatures, ParallelApply, Fit, ComputeMetrics — on the
// pass's own candidates.
func tracedBatchPass(in inputs, split batchSplit, opts core.Options, tr *tracer, iter int) (core.Result, batchLayers, []*datamodel.Document, error) {
	var l batchLayers
	root := tr.begin("bench.batch_pass", 0, iter)
	defer tr.end(root)
	pipe := tr.begin("bench.pipeline", root, iter)
	ps := tr.begin("parser", pipe, iter)
	docs, err := in.parseRange(0, len(in.names), tr, ps, iter)
	tr.end(ps)
	if err != nil {
		return core.Result{}, l, nil, err
	}
	trainDocs, testDocs := pick(docs, split.train), pick(docs, split.test)
	ex1 := tr.begin("core.ParallelExtract", pipe, iter)
	trainC := core.ParallelExtract(in.task, trainDocs, opts.Scope, !opts.NoThrottlers, opts.Workers)
	tr.end(ex1)
	ex2 := tr.begin("core.ParallelExtract", pipe, iter)
	testC := core.ParallelExtract(in.task, testDocs, opts.Scope, !opts.NoThrottlers, opts.Workers)
	tr.end(ex2)
	a0 := readRuntime()
	rw := tr.begin("core.RunWithCandidates", pipe, iter)
	res := core.RunWithCandidates(in.task, trainC, testC, testDocs, in.gold, opts)
	tr.end(rw)
	a1 := readRuntime()
	// TrainStats gives training's length, not its start; the span is
	// placed at the end of the call, where training runs.
	ts := res.TrainStats
	tr.interval(rw, iter, "model.Train", time.Now().Add(-ts.TotalDuration), ts.TotalDuration)
	tr.count(rw, "epochs", float64(ts.Epochs))
	tr.end(pipe)
	l.pipelineMs = tr.ms(pipe)

	nDocs := float64(len(docs))
	nCands := float64(len(trainC) + len(testC))
	l.parseMsPerDoc = tr.ms(ps) / nDocs
	l.extractMsPerDoc = (tr.ms(ex1) + tr.ms(ex2)) / nDocs
	l.candsPerDoc = nCands / nDocs
	l.trainMs = ms(ts.TotalDuration)
	l.msPerEpoch = ts.SecsPerEpoch * 1e3
	l.allocMB = allocMB(a0, a1)

	newFx := func() *features.Extractor { return features.NewExtractor() }
	var stats features.CacheStats
	featMs := 0.0
	for _, cands := range [][]*candidates.Candidate{trainC, testC} {
		cf := tr.begin("core.ParallelCountFeatures", root, iter)
		_, st := core.ParallelCountFeatures(newFx, cands, opts.Workers)
		tr.end(cf)
		featMs += tr.ms(cf)
		stats.Hits += st.Hits
		stats.Misses += st.Misses
	}
	l.featMsPerCand = featMs / nCands
	l.cacheHitRate = stats.HitRate()
	ap := tr.begin("labeling.ParallelApply", root, iter)
	m := labeling.ParallelApply(in.task.LFs, trainC, opts.Workers).Compact()
	tr.end(ap)
	fit := tr.begin("labeling.Fit", root, iter)
	labeling.Fit(m, labeling.FitOptions{})
	tr.end(fit)
	mt := tr.begin("labeling.ComputeMetrics", root, iter)
	labeling.ComputeMetrics(m)
	tr.end(mt)
	l.applyMs, l.fitMs, l.metricsMs = tr.ms(ap), tr.ms(fit), tr.ms(mt)
	return res, l, docs, nil
}

// overheadPct compares the traced operations' median with the
// untraced ones', in percent (0 when either side has no sample).
func overheadPct(traced, untraced []float64) float64 {
	if len(traced) == 0 || len(untraced) == 0 || median(untraced) == 0 {
		return 0
	}
	return (median(traced)/median(untraced) - 1) * 100
}
