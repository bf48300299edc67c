package main

import (
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/kbase"
	"repro/internal/labeling"
	"repro/internal/obs"
)

// lf_dev: the paper's labeling-function development loop (§3.3). A
// store of 200 documents on the disk engine keeps at most 16 parsed
// documents resident, so the corpus is 12.5x the eviction budget and
// every LF application rehydrates through the 16-page LRU per table.
// No LFs are installed at the start. One iteration installs the
// task's next LF (first pass) or edits one (later passes), then reads
// Metrics() and Marginals(). A single client, no timers; the script's
// length is fixed by -seconds.

const (
	lfDocs        = 200
	lfMaxResident = 16
	// lfItersPerSecond sizes the fixed LF script from -seconds: about
	// one iteration per 100 ms at the baseline. A fixed script keeps
	// the mix of first-pass and edit iterations the same on every run.
	lfItersPerSecond = 10
	lfSetups         = 3
)

// lfOp is one step of the LF script: the first pass adds the task's
// LFs in order; later passes cycle through the columns, alternating
// between an edited variant and the original.
type lfOp struct {
	edit    bool
	col     int
	variant bool
}

func lfScript(i, nLFs int) lfOp {
	if i < nLFs {
		return lfOp{col: i}
	}
	j := i - nLFs
	return lfOp{edit: true, col: j % nLFs, variant: (j/nLFs)%2 == 0}
}

func (op lfOp) lf(lfs []labeling.LF) labeling.LF {
	lf := lfs[op.col]
	if !op.variant {
		return lf
	}
	// The edit narrows the LF: it abstains on documents whose name
	// ends in an even digit.
	fn := lf.Fn
	return labeling.LF{Name: lf.Name + "_edited", Modality: lf.Modality, Fn: func(c *candidates.Candidate) int {
		name := c.Doc().Name
		if d := name[len(name)-1]; d >= '0' && d <= '9' && (d-'0')%2 == 0 {
			return 0
		}
		return fn(c)
	}}
}

// apply runs one script step on a session.
func (op lfOp) apply(ds *core.DevSession, lfs []labeling.LF) error {
	if op.edit {
		return ds.EditLF(op.col, op.lf(lfs))
	}
	if col := ds.AddLF(op.lf(lfs)); col != op.col {
		return fmt.Errorf("AddLF installed column %d, want %d", col, op.col)
	}
	return nil
}

// lfState is the warm development store.
type lfState struct {
	in      inputs
	st      *core.Store
	ds      *core.DevSession
	parseMs float64
	spans   []obs.Span // the store's ingest stage spans
}

func newLFStore(in inputs, backend string, maxResident, workers int, tr *tracer) (*lfState, error) {
	ps := tr.begin("parser", 0, 0)
	t0 := time.Now()
	docs, err := in.parseRange(0, len(in.names), tr, ps, 0)
	parseMs := msSince(t0)
	tr.end(ps)
	if err != nil {
		return nil, err
	}
	st := core.NewStore(in.task, core.Options{Backend: backend, MaxResidentDocs: maxResident,
		LFs: []labeling.LF{}, Workers: workers})
	sp := tr.begin("core.Store.AddDocuments", 0, 0)
	err = st.AddDocuments(docs...)
	tr.end(sp)
	if err != nil {
		st.Close()
		return nil, err
	}
	spans := st.TakeIngestSpans()
	for _, s := range spans {
		tr.attach(sp, 0, s)
	}
	return &lfState{in: in, st: st, ds: core.SessionFromStore(st), parseMs: parseMs, spans: spans}, nil
}

func runLFDev(cfg config, tr *tracer) (*report, error) {
	rep := newReport()
	// Set-up runs lfSetups times; the last store is the one measured.
	var s *lfState
	var setups []float64
	for n := 0; n < lfSetups; n++ {
		if s != nil {
			s.st.Close()
		}
		t0 := time.Now()
		var err error
		if s, err = newLFStore(genInputs(cfg.seed, lfDocs), "disk", lfMaxResident, cfg.workers, tr); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.st.Close()
	in, lfs := s.in, s.in.task.LFs
	rep.note("inputs: %d documents, %d bytes, sha256 %s; %d LFs in the script", len(in.names), in.bytes(), in.hash(), len(lfs))
	rep.note("setup: seconds %v", setups)
	sto0 := s.st.StorageStats()

	var iterMs, editMs, editPhaseMs, tracedMs []float64
	var metricsMs, fitMs []float64
	var firstPass []float64
	var firstPassMisses int64
	var firstPassPages int
	var finalM labeling.Metrics
	var finalMarg []float64
	rt0 := readRuntime()
	start := time.Now()
	iters := max(len(lfs), int(math.Round(cfg.seconds*lfItersPerSecond)))
	i := 0
	for ; i < iters; i++ {
		op := lfScript(i, len(lfs))
		traced := tr != nil && i%2 == 1
		var root int
		if traced {
			root = tr.begin("bench.lf_iteration", 0, i)
		}
		t0 := time.Now()
		name := "core.DevSession.AddLF"
		if op.edit {
			name = "core.DevSession.EditLF"
		}
		e := maybeSpan(tr, traced, name, root, i)
		err := op.apply(s.ds, lfs)
		tr.end(e)
		edit := msSince(t0)
		m := maybeSpan(tr, traced, "core.DevSession.Metrics", root, i)
		t1 := time.Now()
		finalM = s.ds.Metrics()
		metricsMs = append(metricsMs, msSince(t1))
		tr.end(m)
		f := maybeSpan(tr, traced, "core.DevSession.Marginals", root, i)
		t2 := time.Now()
		finalMarg = s.ds.Marginals()
		fitMs = append(fitMs, msSince(t2))
		tr.end(f)
		total := msSince(t0)
		tr.end(root)
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.problem("iteration %d: %v", i, err)
			continue
		}
		iterMs = append(iterMs, total)
		editMs = append(editMs, edit)
		if op.edit {
			if traced {
				tracedMs = append(tracedMs, total)
			} else {
				editPhaseMs = append(editPhaseMs, total)
			}
		}
		if i == len(lfs)-1 {
			firstPass = finalMarg
			if tr != nil {
				sto := s.st.StorageStats()
				firstPassMisses = sto.PageCacheMisses - sto0.PageCacheMisses
				firstPassPages = sto.DiskPages
			}
		}
	}
	elapsed := time.Since(start)
	rt1 := readRuntime()
	sto1 := s.st.StorageStats()
	heap := heapLiveMB()

	// The same script on a fully resident memory store must end in
	// bit-identical marginals and LF metrics.
	ref, err := newLFStore(in, "memory", 0, cfg.workers, nil)
	if err != nil {
		return nil, fmt.Errorf("memory reference store: %w", err)
	}
	defer ref.st.Close()
	for j := 0; j < i; j++ {
		if err := lfScript(j, len(lfs)).apply(ref.ds, lfs); err != nil {
			return nil, fmt.Errorf("memory reference, step %d: %w", j, err)
		}
	}
	if err := checkSameLabels(finalMarg, ref.ds.Marginals(), finalM, ref.ds.Metrics()); err != nil {
		rep.problem("disk store vs memory store after %d iterations: %v", i, err)
	}
	cands := ref.ds.Candidates()
	f1, err := marginalF1(firstPass, cands, in.task.Gold)
	if err != nil {
		rep.problem("%v", err)
	} else if err := checkF1(f1); err != nil {
		rep.problem("label model after the first pass: %v", err)
	}

	docsPerS := float64(lfDocs*len(iterMs)) / elapsed.Seconds()
	rep.setE2E("setup_s", median(setups), "s", len(setups), "generation, parse and the 200-document disk store")
	rep.setE2E("docs_per_s", docsPerS, "doc/s", len(iterMs), "documents relabeled per second")
	rep.setE2E("op_p50_ms", median(iterMs), "ms", len(iterMs), "lf_iter_p50_ms")
	rep.setE2E("op_p95_ms", quantile(iterMs, 0.95), "ms", len(iterMs), "lf_iter_p95_ms")
	rep.setE2E("write_p50_ms", median(editMs), "ms", len(editMs), "AddLF/EditLF call p50")
	rep.setE2E("heap_live_mb", heap, "MB", 1, "live heap with the store after the timed phase")
	rep.note("lf_dev: kb_f1 %.4f (the label model's marginals against gold after the first pass)", f1)
	rep.note("lf_dev: %d iterations (%d LFs, then edits) in %.1f s; %d candidates; %d pages after setup, %d at the end; page cache hit rate %.4f; peak resident docs %d",
		i, len(lfs), elapsed.Seconds(), len(cands), sto0.DiskPages, sto1.DiskPages, hitRate(sto0, sto1), sto1.PeakResidentDocs)

	if tr != nil {
		tr.counters(0, 0, "core.Store.StorageStats", storageCounts(sto1))
		rep.setLayer("parser.parse_ms_per_doc", s.parseMs/float64(lfDocs), "ms")
		for _, sp := range s.spans {
			switch sp.Name {
			case "extract":
				rep.setLayer("candidates.extract_ms_per_doc", sp.DurationMs/float64(max(sp.RowsIn, 1)), "ms")
				rep.setLayer("candidates.cands_per_doc", float64(sp.RowsOut)/float64(max(sp.RowsIn, 1)), "count")
			case "featurize":
				rep.setLayer("features.featurize_ms_per_cand", sp.DurationMs/float64(max(sp.RowsIn, 1)), "ms")
			}
			for _, st := range coreStages {
				if st == sp.Name {
					rep.setLayer("core.span."+st+"_ms", sp.DurationMs, "ms")
				}
			}
		}
		rep.setLayer("labeling.fit_ms", median(fitMs), "ms")
		rep.setLayer("labeling.metrics_ms", median(metricsMs), "ms")
		rep.setLayer("core.lf_edit_ms", median(editMs), "ms")
		rep.setLayer("core.resident_docs_peak", float64(sto1.PeakResidentDocs), "count")
		rep.setLayer("kbase.page_cache_hit_rate", hitRate(sto0, sto1), "ratio")
		rep.setLayer("kbase.page_misses_per_iter", float64(firstPassMisses)/float64(len(lfs)), "count")
		rep.setLayer("kbase.pages", float64(firstPassPages), "count")
		spill, err := spillBytes()
		if err != nil {
			return nil, err
		}
		rep.setLayer("kbase.spill_bytes", float64(spill), "bytes")
		rep.setLayer("go.gc_cpu_fraction", gcFraction(rt0, rt1), "ratio")
		rep.setLayer("go.alloc_mb_per_op", allocMB(rt0, rt1)/float64(rep.attempted), "MB")
		rep.setLayer("bench.trace_overhead_pct", overheadPct(tracedMs, editPhaseMs), "%")
		lfProbes(s, ref, tr, rep)
		fillAbsentLayers(rep)
	}
	return rep, nil
}

// maybeSpan opens a span only on traced iterations.
func maybeSpan(tr *tracer, traced bool, name string, parent, iter int) int {
	if !traced {
		return 0
	}
	return tr.begin(name, parent, iter)
}

// lfProbes measures, after the timed phase, LF application over the
// resident candidates (one column per LF), the disk engine's filtered
// read on the Labels relation, and the feature cache.
func lfProbes(s, ref *lfState, tr *tracer, rep *report) {
	cands := ref.ds.Candidates()
	var applyMs []float64
	for j, lf := range s.in.task.LFs {
		a := tr.begin("labeling.ParallelColumnVotes", 0, j)
		labeling.ParallelColumnVotes(lf, cands, s.ds.Workers)
		tr.end(a)
		applyMs = append(applyMs, tr.ms(a))
	}
	rep.setLayer("labeling.apply_ms", median(applyMs), "ms")

	labels := s.st.DB().Table("labels")
	var pwUs []float64
	index := 0
	for k := 0; k < 2*len(s.in.task.LFs); k++ {
		preds := []kbase.Pred{{Col: 1, Want: strconv.Itoa(k % len(s.in.task.LFs))}}
		p := tr.begin("kbase.Table.PageWhereInfo", 0, k)
		t0 := time.Now()
		_, _, plan := labels.PageWhereInfo(preds, 0, 20)
		pwUs = append(pwUs, float64(time.Since(t0).Nanoseconds())/1e3)
		tr.end(p)
		tr.counters(p, k, "kbase.PlanInfo", map[string]float64{"index": b2f(plan.Plan == "index"), "pagesSkipped": float64(plan.PagesSkipped)})
		if plan.Plan == "index" {
			index++
		}
	}
	rep.setLayer("kbase.pagewhere_us", median(pwUs), "us")
	rep.setLayer("kbase.index_hit_rate", float64(index)/float64(len(pwUs)), "ratio")

	cf := tr.begin("core.ParallelCountFeatures", 0, 0)
	_, stats := core.ParallelCountFeatures(features.NewExtractor, cands, s.ds.Workers)
	tr.end(cf)
	rep.setLayer("features.cache_hit_rate", stats.HitRate(), "ratio")
}

func hitRate(a, b core.StorageStats) float64 {
	hits, misses := b.PageCacheHits-a.PageCacheHits, b.PageCacheMisses-a.PageCacheMisses
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// spillBytes sums the disk engine's spill files under the run's
// temporary directory.
func spillBytes() (int64, error) {
	var n int64
	root := os.TempDir()
	entries, err := os.ReadDir(root)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "kbase-spill-") {
			continue
		}
		err := filepath.WalkDir(filepath.Join(root, e.Name()), func(_ string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return n, nil
}

// marginalF1 scores the label model: a candidate is predicted true
// when its marginal exceeds 0.5, and gold says whether it is true.
func marginalF1(marg []float64, cands []*candidates.Candidate, gold func(*candidates.Candidate) bool) (float64, error) {
	if len(marg) != len(cands) {
		return 0, fmt.Errorf("%d marginals for %d candidates", len(marg), len(cands))
	}
	tp, fp, fn := 0, 0, 0
	for i, c := range cands {
		pred, truth := marg[i] > 0.5, gold(c)
		switch {
		case pred && truth:
			tp++
		case pred:
			fp++
		case truth:
			fn++
		}
	}
	if tp == 0 {
		return 0, nil
	}
	p, r := float64(tp)/float64(tp+fp), float64(tp)/float64(tp+fn)
	return 2 * p * r / (p + r), nil
}
