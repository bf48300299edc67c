package fonduer

// The benchmark harness: one testing.B benchmark per table and figure
// of the paper's evaluation. Each benchmark regenerates its experiment
// at the fast configuration (use cmd/fonduer-bench for the full-size
// runs recorded in EXPERIMENTS.md) and reports the headline metric as
// a custom benchmark unit so `go test -bench=.` prints the reproduced
// numbers next to the timings.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/features"
	"repro/internal/kbase"
	"repro/internal/model"
	"repro/internal/nlp"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/serve"
	"repro/internal/sparse"
	"repro/internal/synth"
)

func benchCfg() experiments.Config { return experiments.FastConfig() }

// BenchmarkTable2_OracleComparison regenerates Table 2 (end-to-end
// quality vs Text/Table/Ensemble oracle upper bounds, four domains).
func BenchmarkTable2_OracleComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table2(benchCfg())
		b.ReportMetric(r.Rows[0].Fonduer.F1, "elec_fonduer_F1")
		b.ReportMetric(r.Rows[0].Ensemble.F1, "elec_ensemble_F1")
	}
}

// BenchmarkTable3_ExistingKBs regenerates Table 3 (coverage and
// accuracy against simulated existing knowledge bases).
func BenchmarkTable3_ExistingKBs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table3(benchCfg())
		b.ReportMetric(r.Rows[0].Coverage, "elec_coverage")
		b.ReportMetric(r.Rows[0].Accuracy, "elec_accuracy")
	}
}

// BenchmarkTable4_Featurization regenerates Table 4 (human-tuned vs
// text-only Bi-LSTM vs Fonduer).
func BenchmarkTable4_Featurization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table4(benchCfg())
		b.ReportMetric(r.Rows[0].Fonduer.F1, "elec_fonduer_F1")
		b.ReportMetric(r.Rows[0].BiLSTM.F1, "elec_bilstm_F1")
	}
}

// BenchmarkTable5_SRV regenerates Table 5 (SRV HTML features vs
// Fonduer on ADS).
func BenchmarkTable5_SRV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table5(benchCfg())
		b.ReportMetric(r.Fonduer.F1, "fonduer_F1")
		b.ReportMetric(r.SRV.F1, "srv_F1")
	}
}

// BenchmarkTable6_DocRNN regenerates Table 6 (document-level RNN vs
// Fonduer: runtime per epoch and F1).
func BenchmarkTable6_DocRNN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table6(benchCfg())
		b.ReportMetric(r.DocRNNSecsPerEpoch/r.FonduerSecsPerEpoch, "docRNN_slowdown_x")
		b.ReportMetric(r.FonduerF1-r.DocRNNF1, "fonduer_F1_advantage")
	}
}

// BenchmarkFigure4_Throttling regenerates Figure 4 (quality and
// speedup vs candidate filter ratio).
func BenchmarkFigure4_Throttling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure4(benchCfg())
		last := r.Points[len(r.Points)-1]
		b.ReportMetric(last.SpeedUp, "speedup_at_90pct")
		b.ReportMetric(last.Quality.F1, "F1_at_90pct")
	}
}

// BenchmarkFigure6_ContextScope regenerates Figure 6 (average F1 per
// context scope on ELECTRONICS).
func BenchmarkFigure6_ContextScope(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure6(benchCfg())
		b.ReportMetric(r.F1[3], "document_F1")
		b.ReportMetric(r.F1[0], "sentence_F1")
	}
}

// BenchmarkFigure7_FeatureAblation regenerates Figure 7 (per-modality
// feature ablation).
func BenchmarkFigure7_FeatureAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure7(benchCfg())
		b.ReportMetric(r.Rows[0].All, "elec_all_F1")
		b.ReportMetric(r.Rows[0].NoTabular, "elec_no_tabular_F1")
	}
}

// BenchmarkFigure8_SupervisionAblation regenerates Figure 8 (textual
// vs metadata labeling functions).
func BenchmarkFigure8_SupervisionAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure8(benchCfg())
		b.ReportMetric(r.Rows[0].All, "elec_all_F1")
		b.ReportMetric(r.Rows[0].OnlyTextual, "elec_textual_F1")
	}
}

// BenchmarkFigure9_UserStudy regenerates Figure 9 (manual annotation
// vs labeling functions over a simulated 30-minute session).
func BenchmarkFigure9_UserStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure9(benchCfg())
		var avgManual, avgLF float64
		for _, p := range r.Points {
			avgManual += p.ManualF1
			avgLF += p.LFF1
		}
		n := float64(len(r.Points))
		b.ReportMetric(avgLF/n, "avg_LF_F1")
		b.ReportMetric(avgManual/n, "avg_manual_F1")
	}
}

// BenchmarkParallelPipelineSpeedup measures the staged-parallel
// pipeline (extraction + two-pass featurization + LF application)
// against its Workers=1 execution and reports the wall-clock speedup
// as a metric. On a multi-core host the speedup approaches
// min(GOMAXPROCS, cores); see EXPERIMENTS.md for recorded runs.
func BenchmarkParallelPipelineSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.SpeedupStudy(benchCfg())
		if !r.Identical {
			b.Fatal("parallel run diverged from sequential")
		}
		b.ReportMetric(r.SpeedUp, "parallel_speedup_x")
		b.ReportMetric(float64(r.Workers), "workers")
	}
}

// BenchmarkRunSequential / BenchmarkRunParallel time one full pipeline
// run (ELEC, first relation) at Workers=1 vs the full pool, so
// `go test -bench=BenchmarkRun` prints the end-to-end contrast.
func BenchmarkRunSequential(b *testing.B) { benchRunWorkers(b, 1) }

// BenchmarkRunParallel is the GOMAXPROCS-pool counterpart.
func BenchmarkRunParallel(b *testing.B) { benchRunWorkers(b, 0) }

func benchRunWorkers(b *testing.B, workers int) {
	cfg := benchCfg()
	elec := synth.Electronics(cfg.Seed, cfg.ElecDocs)
	task := elec.Tasks[0]
	train, test := elec.Split()
	gold := elec.GoldTuples[task.Relation]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.Run(task, train, test, gold, core.Options{
			Seed: cfg.Seed, Epochs: cfg.Epochs, Workers: workers})
		b.ReportMetric(res.Quality.F1, "F1")
	}
}

// BenchmarkIngestScratch vs BenchmarkIngestIncremental contrast the
// two ways of growing a knowledge-base session by B batches of
// documents: rebuilding the whole store from scratch after every
// batch (what a store-less pipeline forces) versus Store.AddDocuments
// ingesting each batch's delta only. Both end in the identical store
// state; the incremental path does O(corpus) total stage work instead
// of O(corpus * batches).
const ingestBatches = 6

func ingestCorpus() (*synth.Corpus, [][]*Document) {
	elec := synth.Electronics(8, 24)
	per := (len(elec.Docs) + ingestBatches - 1) / ingestBatches
	var batches [][]*Document
	for lo := 0; lo < len(elec.Docs); lo += per {
		hi := lo + per
		if hi > len(elec.Docs) {
			hi = len(elec.Docs)
		}
		batches = append(batches, elec.Docs[lo:hi])
	}
	return elec, batches
}

// BenchmarkIngestScratch rebuilds the session from scratch after each
// arriving batch.
func BenchmarkIngestScratch(b *testing.B) {
	elec, batches := ingestCorpus()
	task := elec.Tasks[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 1; k <= len(batches); k++ {
			st := core.NewStore(task, core.Options{})
			for _, batch := range batches[:k] {
				if err := st.AddDocuments(batch...); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkIngestIncremental ingests each batch's delta into one
// long-lived store.
func BenchmarkIngestIncremental(b *testing.B) {
	elec, batches := ingestCorpus()
	task := elec.Tasks[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := core.NewStore(task, core.Options{})
		for _, batch := range batches {
			if err := st.AddDocuments(batch...); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkIngestDiskPaged is BenchmarkIngestIncremental over the
// disk-paged kbase backend: identical stage work, with every relation
// row spilling to fixed-size pages behind the LRU page cache instead
// of residing in memory — the storage-engine overhead in isolation.
func BenchmarkIngestDiskPaged(b *testing.B) {
	elec, batches := ingestCorpus()
	task := elec.Tasks[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := core.NewStore(task, core.Options{Backend: "disk"})
		for _, batch := range batches {
			if err := st.AddDocuments(batch...); err != nil {
				b.Fatal(err)
			}
		}
		st.Close()
	}
}

// BenchmarkIngestColumnar is BenchmarkIngestIncremental over the
// columnar kbase backend: identical stage work, with every relation
// row encoded into column-major binary pages in memory — the column
// codec's ingest overhead in isolation, the write-side counterpart of
// BenchmarkServeKBFilteredReadColumnar's read win.
func BenchmarkIngestColumnar(b *testing.B) {
	elec, batches := ingestCorpus()
	task := elec.Tasks[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := core.NewStore(task, core.Options{Backend: "columnar"})
		for _, batch := range batches {
			if err := st.AddDocuments(batch...); err != nil {
				b.Fatal(err)
			}
		}
		st.Close()
	}
}

// BenchmarkIngestEvicting measures the larger-than-RAM configuration:
// disk-paged backend with a resident budget of 4 parsed documents
// (the 24-doc corpus is 6x that), so ingestion keeps evicting LRU
// documents, and a final labeling-function application forces a full
// rehydration sweep from the sentences/candidates relations — the
// eviction + rehydration round trip the equivalence tests prove
// bit-identical.
func BenchmarkIngestEvicting(b *testing.B) {
	elec, batches := ingestCorpus()
	task := elec.Tasks[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := core.NewStore(task, core.Options{Backend: "disk", MaxResidentDocs: 4})
		for _, batch := range batches {
			if err := st.AddDocuments(batch...); err != nil {
				b.Fatal(err)
			}
		}
		st.AddLF(task.LFs[0])
		stats := st.StorageStats()
		if stats.PeakResidentDocs > 4 {
			b.Fatalf("budget violated: %+v", stats)
		}
		b.ReportMetric(stats.PageCacheHitRate, "cache_hit_rate")
		st.Close()
	}
}

// BenchmarkServeKBRead / BenchmarkServeMixedRead establish the
// serving subsystem's read-throughput baseline: concurrent clients
// querying a populated store through the full HTTP handler stack
// (request routing, snapshot-view loading, tuple cloning, JSON
// encoding) without network overhead. ns/op is the per-query latency;
// queries/sec is reported as a custom metric.
func BenchmarkServeKBRead(b *testing.B) {
	benchServeRead(b, []string{"/kb"})
}

// BenchmarkServeMixedRead rotates through every read endpoint,
// approximating a mixed dashboard workload.
func BenchmarkServeMixedRead(b *testing.B) {
	benchServeRead(b, []string{"/kb", "/candidates?limit=10", "/marginals", "/lfmetrics", "/features", "/meta", "/healthz"})
}

func benchServeRead(b *testing.B, paths []string) {
	elec := synth.Electronics(8, 16)
	task := elec.Tasks[0]
	srv, err := serve.New(serve.Config{
		Task:    task,
		Options: core.Options{Seed: 1, Epochs: 2},
		Gold:    elec.GoldTuples[task.Relation],
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.Ingest(elec.Docs); err != nil {
		b.Fatal(err)
	}
	handler := srv.Handler()
	// Warm up every route before the clock starts: the first request
	// pays one-time lazy initialization (JSON encoder states, route
	// dispatch, view field materialization) that showed up as a ~2x
	// cold-start outlier in the recorded baselines and widened
	// benchgate's median-of-3 gate for no signal.
	for _, path := range paths {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("warm-up status %d for %s", rec.Code, path)
		}
	}
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		// Requests must be per-iteration: ServeMux writes routing
		// state (r.Pattern) into the request on dispatch.
		i := 0
		for pb.Next() {
			path := paths[i%len(paths)]
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d for %s", rec.Code, path)
			}
			i++
		}
	})
	if secs := time.Since(start).Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "queries/sec")
	}
}

// BenchmarkServeKBFilteredRead measures the serving layer's filtered
// KB read primitive — Table.PageWhere, the storage call behind
// /kb?col=value — with a selective filter over a multi-page
// disk-backed table (32 default-geometry pages, one group value per
// page, so zone maps can prune 31 of them). The timed path is the
// pushdown plan the /kb handler now uses; the legacy scan-and-clone
// loop it replaced is measured once per run and reported as
// legacy_ns/op alongside the speedup ratio, so the win is visible in
// every benchmark log.
func BenchmarkServeKBFilteredRead(b *testing.B) {
	engine, err := kbase.NewDiskEngine(filepath.Join(b.TempDir(), "spill"), 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	db := kbase.NewDBWith(engine)
	defer db.Close()
	schema, err := kbase.NewSchema("kb", "part", "grp", "n:integer")
	if err != nil {
		b.Fatal(err)
	}
	tbl, err := db.Create(schema)
	if err != nil {
		b.Fatal(err)
	}
	const rows = 4096 // 32 full pages of 128 rows
	for i := 0; i < rows; i++ {
		if _, err := tbl.Insert(kbase.Tuple{fmt.Sprintf("p%05d", i), fmt.Sprintf("g%03d", i/128), i}); err != nil {
			b.Fatal(err)
		}
	}
	// Zone-map scan plan only: the acceptance contrast is
	// pushdown+zone maps vs scan-and-clone, not index lookups.
	tbl.SetAutoIndex(false)
	preds := []kbase.Pred{{Col: 1, Want: "g007"}}
	const offset, limit, matches = 0, 50, 128

	// Legacy comparator: full Scan, fmt.Sprint per row, clone every
	// match, then slice the window — the /kb filtered path before
	// pushdown.
	legacy := func() {
		var all []kbase.Tuple
		tbl.Scan(func(tp kbase.Tuple) bool {
			if fmt.Sprint(tp[1]) == "g007" {
				all = append(all, tp.Clone())
			}
			return true
		})
		if len(all) != matches {
			b.Fatalf("legacy matched %d rows", len(all))
		}
		_ = all[offset : offset+limit]
	}
	const legacyIters = 8
	lstart := time.Now()
	for i := 0; i < legacyIters; i++ {
		legacy()
	}
	legacyNs := float64(time.Since(lstart).Nanoseconds()) / legacyIters

	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		page, total := tbl.PageWhere(preds, offset, limit)
		if total != matches || len(page) != limit {
			b.Fatalf("PageWhere: %d rows, total %d", len(page), total)
		}
	}
	elapsed := time.Since(start)
	if st := tbl.BackendStats(); st.PagesSkipped == 0 {
		b.Fatal("zone maps pruned nothing")
	}
	if ns := float64(elapsed.Nanoseconds()) / float64(b.N); ns > 0 {
		b.ReportMetric(legacyNs, "legacy_ns/op")
		b.ReportMetric(legacyNs/ns, "speedup_x")
	}
}

// BenchmarkServeKBFilteredReadColumnar measures the columnar engine's
// reason to exist: the same selective filtered read served by
// BenchmarkServeKBFilteredRead's disk engine, but with a SCATTERED
// group value — every page holds one row of each of 128 groups, so
// zone maps prune nothing for either engine and the contrast is pure
// decode work. The disk engine must parse every row of every TSV page
// per read (32 pages through a 16-page LRU cache, so reads thrash);
// the columnar engine decodes only the predicate column's string
// vector and materializes the other columns at the 32 matching
// positions. The disk path is timed once per run as disk_ns/op; the
// benchmark fails outright below 2x, and the engine's decode counters
// prove the lazy-materialization claim: non-predicate columns decode
// exactly matches cells per read, never the full page.
func BenchmarkServeKBFilteredReadColumnar(b *testing.B) {
	const rows, groups = 4096, 128 // 32 full pages, one row per group per page
	const matches = rows / groups
	newTable := func(db *kbase.DB) *kbase.Table {
		schema, err := kbase.NewSchema("kb", "part", "grp", "n:integer")
		if err != nil {
			b.Fatal(err)
		}
		tbl, err := db.Create(schema)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			if _, err := tbl.Insert(kbase.Tuple{fmt.Sprintf("p%05d", i), fmt.Sprintf("g%03d", i%groups), i}); err != nil {
				b.Fatal(err)
			}
		}
		// Decode work only: no index plans, and the scattered values
		// defeat zone pruning by construction.
		tbl.SetAutoIndex(false)
		return tbl
	}
	diskEngine, err := kbase.NewDiskEngine(filepath.Join(b.TempDir(), "spill"), 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	diskDB := kbase.NewDBWith(diskEngine)
	defer diskDB.Close()
	diskTbl := newTable(diskDB)
	colDB := kbase.NewDBWith(kbase.NewColumnarEngine(0, 0))
	defer colDB.Close()
	colTbl := newTable(colDB)

	preds := []kbase.Pred{{Col: 1, Want: "g007"}}
	read := func(tbl *kbase.Table) {
		page, total := tbl.PageWhere(preds, 0, 0)
		if total != matches || len(page) != matches {
			b.Fatalf("PageWhere: %d rows, total %d, want %d", len(page), total, matches)
		}
	}
	const diskIters = 8
	dstart := time.Now()
	for i := 0; i < diskIters; i++ {
		read(diskTbl)
	}
	diskNs := float64(time.Since(dstart).Nanoseconds()) / diskIters

	before, ok := colTbl.ColumnarStats()
	if !ok {
		b.Fatal("columnar table reports no columnar stats")
	}
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		read(colTbl)
	}
	elapsed := time.Since(start)
	b.StopTimer()

	after, _ := colTbl.ColumnarStats()
	reads := int64(b.N)
	for _, col := range []int{0, 2} { // the non-predicate columns
		if got := after.CellsDecoded[col] - before.CellsDecoded[col]; got != matches*reads {
			b.Fatalf("column %d decoded %d cells over %d reads, want %d (lazy materialization broken)",
				col, got, reads, matches*reads)
		}
	}
	if got := after.CellsDecoded[1] - before.CellsDecoded[1]; got != (rows+matches)*reads {
		b.Fatalf("predicate column decoded %d cells over %d reads, want %d", got, reads, (rows+matches)*reads)
	}

	ns := float64(elapsed.Nanoseconds()) / float64(b.N)
	b.ReportMetric(diskNs, "disk_ns/op")
	speedup := diskNs / ns
	b.ReportMetric(speedup, "speedup_x")
	if speedup < 2 {
		b.Fatalf("columnar filtered read is only %.2fx faster than the disk engine, want >= 2x", speedup)
	}
}

// BenchmarkServeMultiTenantRead measures the session registry's read
// path under a mixed fleet workload: 8 populated tenants in one
// registry, concurrent clients rotating reads across every tenant's
// /t/<name>/kb and /t/<name>/meta routes. Relative to
// BenchmarkServeKBRead this adds the registry's routing layer (tenant
// lookup under RLock + StripPrefix) per request — the multi-tenant
// overhead the registry design promises to keep negligible.
func BenchmarkServeMultiTenantRead(b *testing.B) {
	const nTenants = 8
	rg, err := serve.NewRegistry(serve.RegistryConfig{
		Resolve: func(domain, relation string) (core.Task, []core.GoldTuple, error) {
			elec := synth.Electronics(8, 2)
			return elec.Tasks[0], nil, nil
		},
		BaseOptions: core.Options{Seed: 1, Epochs: 2},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer rg.Close()
	var paths []string
	for i := 0; i < nTenants; i++ {
		name := fmt.Sprintf("tenant%d", i)
		if _, err := rg.Create(serve.TenantConfig{Name: name, Domain: "electronics"}); err != nil {
			b.Fatal(err)
		}
		corpus := synth.Electronics(int64(100+i), 8)
		if _, err := rg.Get(name).Ingest(corpus.Docs); err != nil {
			b.Fatal(err)
		}
		paths = append(paths, "/t/"+name+"/kb", "/t/"+name+"/meta")
	}
	handler := rg.Handler()
	// Warm sweep before the clock starts, for the same cold-start
	// reason as benchServeRead.
	for _, path := range paths {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("warm-up status %d for %s", rec.Code, path)
		}
	}
	b.ResetTimer()
	start := time.Now()
	// One op sweeps every tenant route once, so even a single-iteration
	// run (the CI gate uses -benchtime 1x) averages over the whole
	// fleet instead of timing one request.
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			for _, path := range paths {
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d for %s", rec.Code, path)
				}
			}
		}
	})
	if secs := time.Since(start).Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N*len(paths))/secs, "queries/sec")
	}
}

// BenchmarkFeatureCacheOn / Off reproduce Appendix C.1: featurization
// with and without the mention-level cache.
func BenchmarkFeatureCacheOn(b *testing.B) { benchCache(b, true) }

// BenchmarkFeatureCacheOff is the uncached baseline of Appendix C.1.
func BenchmarkFeatureCacheOff(b *testing.B) { benchCache(b, false) }

func benchCache(b *testing.B, useCache bool) {
	elec := synth.Electronics(1, 10)
	task := elec.Tasks[0]
	ext := &candidates.Extractor{Args: task.Args, Scope: DocumentScope}
	cands := ext.ExtractAll(elec.Docs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fx := features.NewExtractor()
		fx.UseCache = useCache
		for _, c := range cands {
			fx.Featurize(c)
		}
	}
}

// BenchmarkSparseLILUpdate / COOUpdate / LILQuery / COOQuery reproduce
// Appendix C.2's representation tradeoff.
func BenchmarkSparseLILUpdate(b *testing.B) { benchSparseUpdate(b, sparse.NewLIL()) }

// BenchmarkSparseCOOUpdate measures the append-optimized path.
func BenchmarkSparseCOOUpdate(b *testing.B) { benchSparseUpdate(b, sparse.NewCOO()) }

func benchSparseUpdate(b *testing.B, m sparse.Matrix) {
	for r := 0; r < 2000; r++ {
		for k := 0; k < 60; k++ {
			m.Set(r, (r*31+k*977)%10000, 1)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Set(i%2000, i%10000, float64(i%3-1))
	}
}

// BenchmarkSparseLILQuery measures the read-optimized path.
func BenchmarkSparseLILQuery(b *testing.B) { benchSparseQuery(b, sparse.NewLIL()) }

// BenchmarkSparseCOOQuery measures row queries against the log layout.
func BenchmarkSparseCOOQuery(b *testing.B) { benchSparseQuery(b, sparse.NewCOO()) }

func benchSparseQuery(b *testing.B, m sparse.Matrix) {
	for r := 0; r < 500; r++ {
		for k := 0; k < 40; k++ {
			m.Set(r, (r*31+k*977)%5000, 1)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Row(i % 500)
	}
}

// BenchmarkParseHTML measures document ingestion.
func BenchmarkParseHTML(b *testing.B) {
	elec := synth.Electronics(2, 1)
	src := elec.Sources[0]["html"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parser.ParseHTML("bench", src)
	}
}

// BenchmarkAlignVisual measures the HTML-vdoc word alignment.
func BenchmarkAlignVisual(b *testing.B) {
	elec := synth.Electronics(3, 1)
	src := elec.Sources[0]
	v, err := parser.ParseVDoc(src["vdoc"])
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := parser.ParseHTML("bench", src["html"])
		parser.AlignVisual(d, v)
	}
}

// BenchmarkTokenize measures the NLP tokenizer.
func BenchmarkTokenize(b *testing.B) {
	const text = "The SMBT3904 is rated at 200 mA collector current, with VCEO of 40 V and storage temperature -65 ... 150 C."
	for i := 0; i < b.N; i++ {
		nlp.Tokenize(text)
	}
}

// BenchmarkAblation_MaxPoolVsAttention compares attention against the
// max-pooling aggregation Section 2.2 motivates attention over.
func BenchmarkAblation_MaxPoolVsAttention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		elec := synth.Electronics(benchCfg().Seed, benchCfg().ElecDocs)
		train, test := elec.Split()
		task := elec.Tasks[0]
		gold := elec.GoldTuples[task.Relation]
		att := core.Run(task, train, test, gold, core.Options{
			Variant: core.VariantTextLSTM, Seed: 1, Epochs: benchCfg().Epochs})
		pool := core.Run(task, train, test, gold, core.Options{
			Variant: core.VariantMaxPool, Seed: 1, Epochs: benchCfg().Epochs})
		b.ReportMetric(att.Quality.F1, "attention_F1")
		b.ReportMetric(pool.Quality.F1, "maxpool_F1")
	}
}

// BenchmarkAblation_LabelModelVsMajorityVote compares the generative
// label model against unweighted majority voting (Appendix A.2).
func BenchmarkAblation_LabelModelVsMajorityVote(b *testing.B) {
	for i := 0; i < b.N; i++ {
		elec := synth.Electronics(benchCfg().Seed, benchCfg().ElecDocs)
		train, test := elec.Split()
		task := elec.Tasks[0]
		gold := elec.GoldTuples[task.Relation]
		gen := core.Run(task, train, test, gold, core.Options{Seed: 1, Epochs: benchCfg().Epochs})
		mv := core.Run(task, train, test, gold, core.Options{
			Seed: 1, Epochs: benchCfg().Epochs, MajorityVote: true})
		b.ReportMetric(gen.Quality.F1, "generative_F1")
		b.ReportMetric(mv.Quality.F1, "majority_vote_F1")
	}
}

// BenchmarkTrainSequential / BenchmarkTrainParallel time deterministic
// data-parallel minibatch training (model.Train) at Workers=1 vs
// Workers=8 on the bench corpus's training examples. Both runs train
// the bit-identical model (gradients reduce in fixed example-index
// order); the contrast is pure wall clock. These are gated by the CI
// bench job against bench/baseline.txt, on ns/op and on allocs/op.
func BenchmarkTrainSequential(b *testing.B) { benchTrainWorkers(b, 1) }

// BenchmarkTrainParallel is the 8-worker counterpart.
func BenchmarkTrainParallel(b *testing.B) { benchTrainWorkers(b, 8) }

// benchTrainCorpus builds the training examples once: the staged
// pipeline up to (but excluding) the train stage, via the same
// experiments.TrainExamples helper the trainspeed study uses, so the
// CI-gated benchmark and the study measure the same workload.
func benchTrainCorpus(b *testing.B) (task core.Task, numFeatures int, exs []model.Example) {
	elec := synth.Electronics(42, 32)
	task = elec.Tasks[0]
	numFeatures, exs = experiments.TrainExamples(task, elec.Docs, 0)
	if len(exs) == 0 {
		b.Fatal("bench corpus produced no covered examples")
	}
	return task, numFeatures, exs
}

func benchTrainWorkers(b *testing.B, workers int) {
	task, numFeatures, exs := benchTrainCorpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := model.NewFonduer(len(task.Args), numFeatures, 1, exs)
		st := m.Train(exs, model.TrainOptions{Epochs: 2, Batch: 16, Workers: workers})
		b.ReportMetric(st.SecsPerEpoch*1000, "ms/epoch")
	}
	b.ReportMetric(float64(len(exs)), "examples")
}

// BenchmarkServeIngestPublish measures the serving subsystem's
// ingest-to-publish latency: one POST /ingest-sized document delta
// applied to a warm session — incremental extract/featurize/label,
// full retrain, epoch publication — until the new view is readable.
// This is the write-path number the data-parallel train stage exists
// to improve; it is gated by the CI bench job.
func BenchmarkServeIngestPublish(b *testing.B) {
	elec := synth.Electronics(8, 16)
	task := elec.Tasks[0]
	half := len(elec.Docs) / 2
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srv, err := serve.New(serve.Config{
			Task:    task,
			Options: core.Options{Seed: 1, Epochs: 2, Batch: 16},
			Gold:    elec.GoldTuples[task.Relation],
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := srv.Ingest(elec.Docs[:half]); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		view, err := srv.Ingest(elec.Docs[half:])
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		if view.NumDocs() != len(elec.Docs) {
			b.Fatalf("published view has %d docs, want %d", view.NumDocs(), len(elec.Docs))
		}
		srv.Close()
		b.StartTimer()
	}
}

// BenchmarkServeIngestPublishAsync measures the write-path latency
// two-phase publication exists to fix: a POST /ingest-sized delta (two
// documents) landing on a warm 14-document session. Under async
// publication the delta epoch classifies only the new documents with
// the serving generation's model — no training on the write path; the
// synchronous server retrains over the full corpus before publishing
// the same batch. The inner b.N timing is the async ingest-to-publish
// latency, gated like every serving benchmark. Each iteration checks
// the property directly: the delta's publication trace holds no train
// span and the view still serves generation 1. It also runs the
// identical delta through the synchronous server and reports the
// ratio as speedup_x, for information only: the ratio moves with
// every change to either path, so it is not a gate.
func BenchmarkServeIngestPublishAsync(b *testing.B) {
	elec := synth.Electronics(8, 16)
	task := elec.Tasks[0]
	warm := len(elec.Docs) - 2
	mk := func(async bool) *serve.Server {
		srv, err := serve.New(serve.Config{
			Task:    task,
			Options: core.Options{Seed: 1, Epochs: 2, Batch: 16},
			Gold:    elec.GoldTuples[task.Relation],
			Async:   async,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := srv.Ingest(elec.Docs[:warm]); err != nil {
			b.Fatal(err)
		}
		return srv
	}
	var deltaNs, syncNs float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		asyncSrv := mk(true)
		// Train a real generation so the delta classifies under warm,
		// representative weights — the steady state the write path
		// serves from.
		if _, err := asyncSrv.Train(); err != nil {
			b.Fatal(err)
		}
		syncSrv := mk(false)
		t0 := time.Now()
		if _, err := syncSrv.Ingest(elec.Docs[warm:]); err != nil {
			b.Fatal(err)
		}
		syncNs += float64(time.Since(t0).Nanoseconds())
		t0 = time.Now()
		b.StartTimer()
		view, err := asyncSrv.Ingest(elec.Docs[warm:])
		b.StopTimer()
		deltaNs += float64(time.Since(t0).Nanoseconds())
		if err != nil {
			b.Fatal(err)
		}
		if view.NumDocs() != len(elec.Docs) || view.Generation() != 1 {
			b.Fatalf("delta view = %d docs at generation %d, want %d docs at generation 1",
				view.NumDocs(), view.Generation(), len(elec.Docs))
		}
		if tr, ok := newestTrace(asyncSrv.Traces(), "delta"); !ok || tr.Epoch != view.Epoch() {
			b.Fatalf("no delta trace for epoch %d: %+v", view.Epoch(), asyncSrv.Traces())
		} else if hasSpan(tr.Spans, "train") {
			b.Fatalf("delta publication trained on the write path: %+v", tr.Spans)
		}
		asyncSrv.Close()
		syncSrv.Close()
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(syncNs/deltaNs, "speedup_x")
	b.ReportMetric(syncNs/float64(b.N)/1e6, "sync_ms")
}

// newestTrace returns the most recent trace of the given kind
// (Server.Traces lists newest first).
func newestTrace(traces []obs.Trace, kind string) (obs.Trace, bool) {
	for _, tr := range traces {
		if tr.Kind == kind {
			return tr, true
		}
	}
	return obs.Trace{}, false
}

// hasSpan reports whether a span tree contains a span with the name.
func hasSpan(spans []obs.Span, name string) bool {
	for _, sp := range spans {
		if sp.Name == name || hasSpan(sp.Children, name) {
			return true
		}
	}
	return false
}

// BenchmarkServeMetricsOverhead bounds the cost of HTTP
// instrumentation: two identical warm servers answer the same read
// mix — one wired to an obs.Metrics registry, one with Metrics nil,
// which serves the exact pre-instrumentation handler chain — and the
// relative latency difference is reported as overhead_pct. The
// instrumented hot path is one map lookup plus two atomic updates per
// request; the benchmark fails outright if it costs more than 5%.
// Chunked mins make the comparison robust at -benchtime=1x: each
// sample is the fastest of eight interleaved 100-request chunks, so
// GC pauses and scheduler noise fall out of both sides.
func BenchmarkServeMetricsOverhead(b *testing.B) {
	elec := synth.Electronics(8, 16)
	task := elec.Tasks[0]
	build := func(m *obs.Metrics) http.Handler {
		srv, err := serve.New(serve.Config{
			Task:    task,
			Options: core.Options{Seed: 1, Epochs: 2},
			Gold:    elec.GoldTuples[task.Relation],
			Name:    "bench",
			Metrics: m,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(srv.Close)
		if _, err := srv.Ingest(elec.Docs); err != nil {
			b.Fatal(err)
		}
		return srv.Handler()
	}
	plain := build(nil)
	instr := build(obs.NewMetrics())

	paths := []string{"/kb", "/healthz", "/meta", "/candidates?limit=10"}
	const chunks, perChunk = 8, 100
	chunk := func(h http.Handler) time.Duration {
		t0 := time.Now()
		for i := 0; i < perChunk; i++ {
			path := paths[i%len(paths)]
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d for %s", rec.Code, path)
			}
		}
		return time.Since(t0)
	}
	measure := func() (plainMin, instrMin time.Duration) {
		plainMin, instrMin = time.Hour, time.Hour
		for c := 0; c < chunks; c++ {
			if d := chunk(plain); d < plainMin {
				plainMin = d
			}
			if d := chunk(instr); d < instrMin {
				instrMin = d
			}
		}
		return plainMin, instrMin
	}
	measure() // warm-up: route tables, JSON encoder states, metric children

	b.ResetTimer()
	var plainNs, instrNs int64
	for i := 0; i < b.N; i++ {
		p, m := measure()
		plainNs += p.Nanoseconds()
		instrNs += m.Nanoseconds()
	}
	b.StopTimer()

	reqs := float64(b.N * perChunk)
	b.ReportMetric(float64(plainNs)/reqs, "plain_ns/req")
	b.ReportMetric(float64(instrNs)/reqs, "instr_ns/req")
	overhead := (float64(instrNs) - float64(plainNs)) / float64(plainNs) * 100
	b.ReportMetric(overhead, "overhead_pct")
	if overhead > 5 {
		b.Fatalf("instrumentation overhead %.2f%% exceeds the 5%% budget (plain %dns, instrumented %dns)",
			overhead, plainNs, instrNs)
	}
}
