package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/kbase"
	"repro/internal/labeling"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/serve"
)

// serve_mixed: per corpus, one async tenant on the columnar engine
// with no eviction, warmed with 64 documents and one explicit
// Server.Train, served by its HTTP handler on a loopback listener.
// During the timed phase the background trainer is off. A closed-loop
// writer POSTs /ingest batches of 2 new documents as source bytes, so
// the corpus grows through the run; an open-loop reader, timed from
// each request's due time, mixes filtered /kb, paged /kb and paged
// /candidates reads at a base rate. On the last corpus the reader then
// steps up a fixed ladder of rates. Two goroutines issue the load,
// over one connection each.

const (
	serveWarmDocs  = 64
	serveBatchDocs = 2
	// serveCorpora warm tenants run one after the other, each over its
	// own corpus.
	serveCorpora = 5
	// serveBaseIngests is the base phase's fixed ingest work: each
	// tenant's corpus grows from 64 to 192 documents, whatever the
	// speed, so the ingest figures, kb_f1 and heap_live_mb are taken
	// at the same corpus size on every run.
	serveBaseIngests = 64
	// serveLadderPool is the extra ingest work the last tenant's
	// writer has for the ladder.
	serveLadderPool = 128
	serveBaseRate   = 200.0
	// serveLadderShare of -seconds is split evenly over the ladder's
	// rates; the base phases are fixed work and do not scale with it.
	serveLadderShare = 0.25
	// readLimitMs is the read p99 a ladder rate must stay under.
	readLimitMs = 50.0
	// probeReads is the number of in-process handler calls and
	// PageWhere calls the traced run makes after the timed phase.
	probeReads = 400
	probeDocs  = 16
)

var serveLadder = []float64{500, 1000, 2000, 4000}

// serveState is one warm tenant plus the inputs of its timed phase.
type serveState struct {
	in      inputs
	srv     *serve.Server
	bodies  [][]byte // one /ingest body per batch of pool documents
	filters []kbFilter
	epoch   uint64 // the warm epoch
	train   model.TrainStats
	trainMB float64
}

// kbFilter is one column filter the reader issues: a value taken from
// the warm KB, so most filtered reads match rows.
type kbFilter struct{ col, want string }

// setupServe builds one warm tenant; with ladder set, its ingest pool
// also covers the read ladder.
func setupServe(cfg config, seed int64, ladder bool) (*serveState, error) {
	batches := serveBaseIngests
	if ladder {
		batches += serveLadderPool
	}
	st := &serveState{in: genInputs(seed, serveWarmDocs+serveBatchDocs*batches)}
	in := st.in
	for lo := serveWarmDocs; lo+serveBatchDocs <= len(in.names); lo += serveBatchDocs {
		var req struct {
			Documents []serve.DocumentUpload `json:"documents"`
		}
		for i := lo; i < lo+serveBatchDocs; i++ {
			req.Documents = append(req.Documents, serve.DocumentUpload{Name: in.names[i], Format: "html", Source: in.html[i], VDoc: in.vdoc[i]})
		}
		b, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		st.bodies = append(st.bodies, b)
	}
	warm, err := in.parseRange(0, serveWarmDocs, nil, 0, 0)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{
		Task:    in.task,
		Options: core.Options{Backend: "columnar", Workers: cfg.workers, Epochs: batchEpochs, Seed: seed},
		Gold:    in.gold,
		Name:    "bench",
		Async:   true,
	})
	if err != nil {
		return nil, err
	}
	st.srv = srv
	if _, err := srv.Ingest(warm); err != nil {
		srv.Close()
		return nil, fmt.Errorf("warm ingest: %w", err)
	}
	a0 := readRuntime()
	v, err := srv.Train()
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("warm train: %w", err)
	}
	st.trainMB = allocMB(a0, readRuntime())
	st.train = v.Result().TrainStats
	st.epoch = v.Epoch()
	seen := map[kbFilter]bool{}
	for _, tp := range v.KB().Page(0, 0) {
		for i, col := range []string{"part", "value"} {
			f := kbFilter{col: col, want: fmt.Sprint(tp[i])}
			if !seen[f] {
				seen[f] = true
				st.filters = append(st.filters, f)
			}
		}
	}
	if len(st.filters) == 0 {
		srv.Close()
		return nil, errors.New("the warm KB is empty")
	}
	return st, nil
}

// readSample is one read, timed from its due time.
type readSample struct {
	phase  int
	ms     float64
	lateMs float64 // how late the generator sent it
	bytes  int
	traced bool
	ok     bool
}

// readLimit is readLimitMs as a duration.
const readLimit = time.Duration(readLimitMs * float64(time.Millisecond))

// phase is one open-loop segment of the read schedule.
type phase struct {
	name       string
	rate       float64
	start, end time.Time
	missed     int // requests due in the phase that were never sent
}

// dueAt is the time the phase's j-th request is due.
func (p *phase) dueAt(j int) time.Time {
	return p.start.Add(time.Duration(float64(j) / p.rate * float64(time.Second)))
}

func runServe(cfg config, tr *tracer) (*report, error) {
	rep := newReport()
	var setups []float64
	var runs []serveRun
	var stages stageTimes
	for k := 0; k < serveCorpora; k++ {
		t0 := time.Now()
		last := k == serveCorpora-1
		st, err := setupServe(cfg, corpusSeed(cfg.seed, k), last)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		rep.note("inputs %d: %d documents (%d warm + %d in the ingest pool), %d bytes, sha256 %s",
			k, len(st.in.names), serveWarmDocs, len(st.in.names)-serveWarmDocs, st.in.bytes(), st.in.hash())
		run, err := serveCorpus(cfg, tr, st, k, last, &stages, rep)
		st.srv.Close()
		if err != nil {
			return nil, err
		}
		runs = append(runs, run)
	}
	rep.note("setup: seconds %v", setups)
	// The corpora's samples are pooled, so a figure moves smoothly with
	// how many of them converge slowly instead of jumping between them.
	var ingMs, readMs, heaps []float64
	baseSecs := 0.0
	for _, r := range runs {
		ingMs = append(ingMs, r.ingestMs...)
		readMs = append(readMs, r.readMs...)
		heaps = append(heaps, r.heapMB)
		baseSecs += r.baseSecs
	}
	docs := serveWarmDocs + serveBatchDocs*serveBaseIngests
	rep.setE2E("setup_s", median(setups), "s", len(setups), "generation, warm ingest of 64 documents and Server.Train")
	rep.setE2E("docs_per_s", float64(serveBatchDocs*len(ingMs))/baseSecs, "doc/s", len(ingMs), "ingest_docs_per_s at the base read rate")
	rep.setE2E("op_p50_ms", median(readMs), "ms", len(readMs), "read_p50_ms at the base rate")
	rep.setE2E("op_p95_ms", quantile(readMs, 0.95), "ms", len(readMs), "read p95 at the base rate")
	rep.setE2E("write_p50_ms", median(ingMs), "ms", len(ingMs), "ingest_p50_ms at the base read rate")
	rep.setE2E("heap_live_mb", median(heaps), "MB", len(heaps), fmt.Sprintf("live heap with the tenant at %d documents, median over corpora", docs))
	rep.note("serve: ingest_p95_ms %.3f (n=%d); read_p99_ms %.3f (n=%d)", quantile(ingMs, 0.95), len(ingMs), quantile(readMs, 0.99), len(readMs))
	if tr != nil {
		stages.report(rep)
		fillAbsentLayers(rep)
	}
	return rep, nil
}

// serveRun is what one corpus's base phase measured.
type serveRun struct {
	ingestMs, readMs []float64
	baseSecs, heapMB float64
}

// serveCorpus runs the timed phase against one warm tenant: the base
// phase, a fixed amount of ingest work beside reads at the base rate,
// then, on the run's last corpus, the time-boxed read ladder and (when
// tracing) the layer probes. Between the two phases both clients
// pause while the heap is measured at a known corpus size.
func serveCorpus(cfg config, tr *tracer, st *serveState, k int, last bool, stages *stageTimes, rep *report) (serveRun, error) {
	var out serveRun
	if tr != nil {
		for _, t := range st.srv.Traces() {
			if t.Kind == "train" {
				tr.attachTrace(0, 0, t) // the warm Server.Train, with its StageSpans
			}
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return out, err
	}
	hs := &http.Server{Handler: st.srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: stopping the HTTP server: %v\n", err)
		}
		if err := <-served; err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "perfbench: HTTP server: %v\n", err)
		}
	}()
	base := "http://" + ln.Addr().String()

	bodies := st.bodies
	st.bodies, st.in = nil, inputs{task: st.in.task} // the tenant's state only, for the heap
	w := &serveWriter{base: base, client: newClient(), prev: st.epoch, tr: tr, srv: st.srv, stages: stages}
	r := &serveReader{base: base, client: newClient(), filters: st.filters,
		rng: rand.New(rand.NewSource(corpusSeed(cfg.seed, k))), tr: tr}
	baseDone, readerPaused, resume := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var ladder []*phase
	var ladderEnd time.Time
	rt0 := readRuntime()
	start := time.Now()
	basePhase := &phase{name: "base", rate: serveBaseRate, start: start}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		w.run(bodies[:serveBaseIngests], nil)
		w.readF1()
		close(baseDone)
		if last {
			<-resume
			w.run(bodies[serveBaseIngests:], &ladderEnd)
		}
	}()
	go func() {
		defer wg.Done()
		r.runBase(basePhase, baseDone)
		close(readerPaused)
		if last {
			<-resume
			r.runLadder(ladder)
		}
	}()
	<-baseDone
	<-readerPaused
	baseSecs := w.lastEnd.Sub(start).Seconds()
	out.heapMB = heapLiveMB()
	if last {
		ladderStart := time.Now()
		step := time.Duration(cfg.seconds * serveLadderShare / float64(len(serveLadder)) * float64(time.Second))
		for i, rate := range serveLadder {
			s := ladderStart.Add(time.Duration(i) * step)
			ladder = append(ladder, &phase{name: fmt.Sprintf("ladder%d", i+1), rate: rate, start: s, end: s.Add(step)})
		}
		ladderEnd = ladder[len(ladder)-1].end
		close(resume)
	}
	wg.Wait()
	rt1 := readRuntime()
	w.client.CloseIdleConnections()
	r.client.CloseIdleConnections()

	rep.attempted += w.attempted + r.attempted
	rep.failed += w.failed + r.failed
	rep.problems = append(rep.problems, w.problems...)
	rep.problems = append(rep.problems, r.problems...)
	final := st.srv.CurrentView()
	if final.Epoch() != w.prev {
		rep.problem("corpus %d: final view serves epoch %d, the last ingest published %d", k, final.Epoch(), w.prev)
	}
	if r.lastEpoch > final.Epoch() {
		rep.problem("corpus %d: a read saw epoch %d, beyond the final epoch %d", k, r.lastEpoch, final.Epoch())
	}
	if err := checkF1(w.f1); err != nil {
		rep.problem("corpus %d: served KB after the base phase: %v", k, err)
	}
	if w.exhausted {
		rep.note("serve: corpus %d: the ingest pool of %d batches ran out before the ladder ended", k, len(bodies))
	}

	ingMs := w.samples[:min(serveBaseIngests, len(w.samples))]
	var readMs, lateMs []float64
	for _, s := range r.samples {
		if s.phase == 0 {
			readMs = append(readMs, s.ms)
			lateMs = append(lateMs, s.lateMs)
		}
	}
	out.ingestMs, out.readMs, out.baseSecs = ingMs, readMs, baseSecs
	rep.note("serve: corpus %d: base phase %.2f s; docs_per_s %.3f; ingest_p50_ms %.3f ingest_p95_ms %.3f (n=%d); read_p50_ms %.3f read_p95_ms %.3f read_p99_ms %.3f (n=%d); heap_live_mb %.1f; kb_f1 %.4f at %d documents",
		k, baseSecs, float64(serveBatchDocs*len(ingMs))/baseSecs, median(ingMs), quantile(ingMs, 0.95), len(ingMs),
		median(readMs), quantile(readMs, 0.95), quantile(readMs, 0.99), len(readMs), out.heapMB, w.f1, serveWarmDocs+serveBatchDocs*serveBaseIngests)
	rep.note("serve: corpus %d: bench.gen_late_ms p99 %.3f max %.3f (n=%d); %d ingests in all, final epoch %d with %d documents",
		k, quantile(lateMs, 0.99), quantile(lateMs, 1), len(lateMs), len(w.samples), final.Epoch(), final.NumDocs())
	if !last {
		return out, nil
	}
	maxQPS := ladderReport(rep, append([]*phase{basePhase}, ladder...), r.samples)
	rep.note("serve: read_max_qps %.0f (limit: p99 <= %.0f ms, every due request sent, no failures)", maxQPS, readLimitMs)

	if tr != nil {
		rep.setLayer("bench.gen_late_ms", quantile(lateMs, 0.99), "ms")
		rep.setLayer("go.gc_cpu_fraction", gcFraction(rt0, rt1), "ratio")
		rep.setLayer("go.alloc_mb_per_op", allocMB(rt0, rt1)/float64(w.attempted+r.attempted), "MB")
		rep.setLayer("model.train_ms", ms(st.train.TotalDuration), "ms")
		rep.setLayer("model.ms_per_epoch", st.train.SecsPerEpoch*1e3, "ms")
		rep.setLayer("model.alloc_mb", st.trainMB, "MB")
		var tracedRead, plainRead []float64
		bytesSum, nBytes := 0, 0
		for _, s := range r.samples {
			if s.phase != 0 || !s.ok {
				continue
			}
			bytesSum += s.bytes
			nBytes++
			if s.traced {
				tracedRead = append(tracedRead, s.ms)
			} else {
				plainRead = append(plainRead, s.ms)
			}
		}
		rep.setLayer("serve.response_bytes_per_read", float64(bytesSum)/float64(max(nBytes, 1)), "bytes")
		rep.setLayer("bench.trace_overhead_pct", overheadPct(tracedRead, plainRead), "%")
		sto := final.StorageStats()
		tr.counters(0, 0, "core.StoreView.StorageStats", storageCounts(sto))
		rep.setLayer("kbase.pages", float64(sto.DiskPages), "count")
		rep.setLayer("kbase.page_cache_hit_rate", sto.PageCacheHitRate, "ratio")
		rep.setLayer("core.resident_docs_peak", float64(sto.PeakResidentDocs), "count")
		if err := serveProbes(cfg, st, final, tr, rep, corpusSeed(cfg.seed, k)); err != nil {
			return out, err
		}
	}
	return out, nil
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1,
			DisableCompression: true},
	}
}

// do sends one request and reads the whole reply.
func do(c *http.Client, method, u string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, u, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// serveWriter is the closed-loop ingest client.
type serveWriter struct {
	base      string
	client    *http.Client
	srv       *serve.Server
	tr        *tracer
	prev      uint64
	samples   []float64 // ms per successful /ingest round trip
	lastEnd   time.Time // when the latest reply arrived
	f1        float64
	exhausted bool
	stages    *stageTimes

	attempted, failed int
	problems          []string
}

// run ingests the batches in order, each after the previous reply;
// with until set, it stops once that time has passed.
func (w *serveWriter) run(bodies [][]byte, until *time.Time) {
	i := 0
	for ; i < len(bodies) && (until == nil || time.Now().Before(*until)); i++ {
		n := len(w.samples) + w.failed
		traced := w.tr != nil && n%2 == 1
		sp := 0
		if traced {
			sp = w.tr.begin("bench.ingest", 0, n)
		}
		t0 := time.Now()
		status, body, err := do(w.client, "POST", w.base+"/ingest", bodies[i])
		w.lastEnd = time.Now()
		lat := ms(w.lastEnd.Sub(t0))
		w.tr.end(sp)
		w.attempted++
		var reply struct {
			Epoch uint64 `json:"epoch"`
		}
		if err == nil {
			err = json.Unmarshal(body, &reply)
		}
		if err == nil {
			err = checkIngestEpoch(status, w.prev, reply.Epoch)
		}
		if err != nil {
			w.failed++
			w.problems = append(w.problems, fmt.Sprintf("ingest %d: %v", n, err))
			continue
		}
		w.prev = reply.Epoch
		if traced {
			for _, t := range w.srv.Traces() {
				if t.Kind == "delta" && t.Epoch == reply.Epoch {
					w.tr.attachTrace(sp, n, t)
					w.stages.add(t, lat)
					break
				}
			}
		}
		w.samples = append(w.samples, lat)
	}
	w.exhausted = until != nil && i == len(bodies)
}

// readF1 reads the served KB's quality from /meta.
func (w *serveWriter) readF1() {
	status, body, err := do(w.client, "GET", w.base+"/meta", nil)
	var meta struct {
		Epoch   uint64             `json:"epoch"`
		Quality map[string]float64 `json:"quality"`
	}
	if err == nil && status != 200 {
		err = fmt.Errorf("status %d", status)
	}
	if err == nil {
		err = json.Unmarshal(body, &meta)
	}
	if err == nil && meta.Epoch != w.prev {
		err = fmt.Errorf("/meta served epoch %d after the last ingest published %d", meta.Epoch, w.prev)
	}
	if err != nil {
		w.problems = append(w.problems, fmt.Sprintf("reading /meta: %v", err))
		return
	}
	w.f1 = meta.Quality["f1"]
}

// stageTimes collects, per traced ingest, the server's writer time
// and its stage spans.
type stageTimes struct {
	writer, overhead []float64
	stage            map[string][]float64
	extractMs        float64
	extractDocs      float64
	extractCands     float64
	featMs, featRows float64
	applyMs, fitMs   []float64
}

func (s *stageTimes) add(t obs.Trace, clientMs float64) {
	if s.stage == nil {
		s.stage = map[string][]float64{}
	}
	s.writer = append(s.writer, t.DurationMs)
	s.overhead = append(s.overhead, clientMs-t.DurationMs)
	sum := map[string]float64{}
	supervise := 0
	for _, sp := range t.Spans {
		sum[sp.Name] += sp.DurationMs
		switch sp.Name {
		case "extract":
			s.extractMs += sp.DurationMs
			s.extractDocs += float64(sp.RowsIn)
			s.extractCands += float64(sp.RowsOut)
		case "featurize":
			s.featMs += sp.DurationMs
			s.featRows += float64(sp.RowsIn)
		case "supervise":
			// The store's supervise stage applies the LFs to the new
			// candidates; the delta view's refits the label model
			// over every vote.
			if supervise == 0 {
				s.applyMs = append(s.applyMs, sp.DurationMs)
			} else {
				s.fitMs = append(s.fitMs, sp.DurationMs)
			}
			supervise++
		}
	}
	for _, st := range coreStages {
		s.stage[st] = append(s.stage[st], sum[st])
	}
}

func (s *stageTimes) report(rep *report) {
	rep.setLayer("core.ingest_writer_ms", median(s.writer), "ms")
	rep.setLayer("serve.ingest_overhead_ms", median(s.overhead), "ms")
	for _, st := range coreStages {
		rep.setLayer("core.span."+st+"_ms", median(s.stage[st]), "ms")
	}
	if s.extractDocs > 0 {
		rep.setLayer("candidates.extract_ms_per_doc", s.extractMs/s.extractDocs, "ms")
		rep.setLayer("candidates.cands_per_doc", s.extractCands/s.extractDocs, "count")
	}
	if s.featRows > 0 {
		rep.setLayer("features.featurize_ms_per_cand", s.featMs/s.featRows, "ms")
	}
	rep.setLayer("labeling.apply_ms", median(s.applyMs), "ms")
	rep.setLayer("labeling.fit_ms", median(s.fitMs), "ms")
}

// serveReader is the open-loop read client.
type serveReader struct {
	base      string
	client    *http.Client
	filters   []kbFilter
	rng       *rand.Rand
	tr        *tracer
	samples   []readSample
	lastEpoch uint64
	prevEnd   time.Time // when the previous reply arrived

	attempted, failed int
	problems          []string
}

// readPath picks the k-th read of the mix: filtered /kb on a column
// value, a paged /kb window, a paged /candidates window.
func (r *serveReader) readPath(k int) (path string, f *kbFilter) {
	switch k % 4 {
	case 0, 1:
		f := r.filters[r.rng.Intn(len(r.filters))]
		return "/kb?" + url.Values{f.col: {f.want}}.Encode(), &f
	case 2:
		return fmt.Sprintf("/kb?offset=%d&limit=20", r.rng.Intn(64)), nil
	default:
		return fmt.Sprintf("/candidates?offset=%d&limit=20", r.rng.Intn(256)), nil
	}
}

// runBase reads at the base rate until stop is closed.
func (r *serveReader) runBase(p *phase, stop <-chan struct{}) {
	for j := 0; ; j++ {
		select {
		case <-stop:
			p.end = time.Now()
			return
		default:
		}
		r.send(0, p.dueAt(j))
	}
}

// runLadder reads at each ladder rate for its phase. Requests the
// phase end cuts off count as missed when they were already over the
// latency limit.
func (r *serveReader) runLadder(phases []*phase) {
	for pi, p := range phases {
		n := int(p.end.Sub(p.start).Seconds() * p.rate)
		for j := 0; j < n; j++ {
			if !time.Now().Before(p.end) {
				for ; j < n; j++ {
					if p.end.Sub(p.dueAt(j)) >= readLimit {
						p.missed++
					}
				}
				break
			}
			r.send(pi+1, p.dueAt(j))
		}
	}
}

// send issues the next read of the mix when it is due and records its
// latency from the due time, and how late the generator sent it: the
// delay beyond both the due time and the previous reply.
func (r *serveReader) send(phase int, due time.Time) {
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	sent := time.Now()
	ready := due
	if r.prevEnd.After(ready) {
		ready = r.prevEnd
	}
	k := r.attempted
	path, f := r.readPath(k)
	traced := r.tr != nil && k%2 == 1
	sp := 0
	if traced {
		sp = r.tr.begin("bench.read", 0, k)
	}
	status, body, err := do(r.client, "GET", r.base+path, nil)
	r.tr.end(sp)
	r.prevEnd = time.Now()
	r.attempted++
	s := readSample{phase: phase, ms: ms(r.prevEnd.Sub(due)), lateMs: max(0, ms(sent.Sub(ready))), bytes: len(body), traced: traced}
	if err == nil {
		err = r.check(status, body, f)
	}
	if err != nil {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf("read %s: %v", path, err))
	} else {
		s.ok = true
	}
	r.tr.count(sp, "bytes", float64(len(body)))
	r.samples = append(r.samples, s)
}

// check validates one read reply.
func (r *serveReader) check(status int, body []byte, f *kbFilter) error {
	if status != 200 {
		return fmt.Errorf("status %d: %s", status, strings.TrimSpace(string(body)))
	}
	var reply struct {
		Epoch   uint64   `json:"epoch"`
		Columns []string `json:"columns"`
		Total   int      `json:"total"`
		Tuples  [][]any  `json:"tuples"`
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		return err
	}
	if err := checkReadEpoch(r.lastEpoch, reply.Epoch); err != nil {
		return err
	}
	r.lastEpoch = reply.Epoch
	if f != nil {
		return checkFilteredRows(reply.Columns, reply.Tuples, reply.Total, f.col, f.want)
	}
	return nil
}

// ladderReport prints requests sent, succeeded and failed per phase
// and returns the highest ladder rate that met the read limit.
func ladderReport(rep *report, phases []*phase, samples []readSample) float64 {
	best := 0.0
	for pi, p := range phases {
		var lat, late []float64
		ok, failed := 0, 0
		for _, s := range samples {
			if s.phase != pi {
				continue
			}
			lat = append(lat, s.ms)
			late = append(late, s.lateMs)
			if s.ok {
				ok++
			} else {
				failed++
			}
		}
		p99 := quantile(lat, 0.99)
		meets := failed == 0 && p.missed == 0 && len(lat) > 0 && p99 <= readLimitMs
		if pi > 0 && meets {
			best = p.rate
		}
		rep.note("serve: phase %-8s rate %5.0f/s sent %5d ok %5d failed %3d unsent %5d p50 %8.3f ms p99 %8.3f ms gen_late_p99 %6.3f ms meets_limit %v",
			p.name, p.rate, len(lat), ok, failed, p.missed, median(lat), p99, quantile(late, 0.99), meets)
	}
	return best
}

// serveProbes measures, after the timed phase, the layers the traffic
// cannot isolate: the read handler without a socket, the KB planner's
// PageWhere, and the parser, feature cache and LF metrics on a sample
// of the pool's documents.
func serveProbes(cfg config, st *serveState, view *core.StoreView, tr *tracer, rep *report, seed int64) error {
	h := st.srv.Handler()
	r := &serveReader{filters: st.filters, rng: rand.New(rand.NewSource(seed + 1))}
	var handlerUs []float64
	for k := 0; k < probeReads; k++ {
		path, _ := r.readPath(k)
		req := httptest.NewRequest("GET", path, nil)
		rec := httptest.NewRecorder()
		sp := tr.begin("serve.Handler.ServeHTTP", 0, k)
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		handlerUs = append(handlerUs, float64(time.Since(t0).Nanoseconds())/1e3)
		tr.end(sp)
		if rec.Code != 200 {
			return fmt.Errorf("in-process read %s: status %d", path, rec.Code)
		}
	}
	rep.setLayer("serve.read_handler_us", median(handlerUs), "us")

	kb := view.KB()
	schema := view.Schema()
	var pwUs []float64
	index := 0
	for k := 0; k < probeReads; k++ {
		f := st.filters[k%len(st.filters)]
		preds := []kbase.Pred{{Col: schema.ColIndex(f.col), Want: f.want}}
		sp := tr.begin("kbase.Table.PageWhereInfo", 0, k)
		t0 := time.Now()
		_, _, plan := kb.PageWhereInfo(preds, 0, 20)
		pwUs = append(pwUs, float64(time.Since(t0).Nanoseconds())/1e3)
		tr.end(sp)
		tr.counters(sp, k, "kbase.PlanInfo", map[string]float64{"index": b2f(plan.Plan == "index"), "pagesSkipped": float64(plan.PagesSkipped)})
		if plan.Plan == "index" {
			index++
		}
	}
	rep.setLayer("kbase.pagewhere_us", median(pwUs), "us")
	rep.setLayer("kbase.index_hit_rate", float64(index)/probeReads, "ratio")

	probe := genInputs(seed, serveWarmDocs+probeDocs)
	return layerProbe(probe, serveWarmDocs, serveWarmDocs+probeDocs, cfg.workers, tr, rep)
}

// layerProbe parses documents [lo, hi) of in and runs extraction,
// the feature-count pass, LF application and LF metrics over them,
// each call a span; it reports the parser, feature-cache and
// LF-metrics layers of workloads whose own traffic does not call
// those functions directly.
func layerProbe(in inputs, lo, hi, workers int, tr *tracer, rep *report) error {
	root := tr.begin("bench.layer_probe", 0, 0)
	defer tr.end(root)
	ps := tr.begin("parser", root, 0)
	docs, err := in.parseRange(lo, hi, tr, ps, 0)
	tr.end(ps)
	if err != nil {
		return err
	}
	rep.setLayer("parser.parse_ms_per_doc", tr.ms(ps)/float64(len(docs)), "ms")
	ex := tr.begin("core.ParallelExtract", root, 0)
	cands := core.ParallelExtract(in.task, docs, candidates.DocumentScope, true, workers)
	tr.end(ex)
	cf := tr.begin("core.ParallelCountFeatures", root, 0)
	_, stats := core.ParallelCountFeatures(features.NewExtractor, cands, workers)
	tr.end(cf)
	rep.setLayer("features.cache_hit_rate", stats.HitRate(), "ratio")
	ap := tr.begin("labeling.ParallelApply", root, 0)
	m := labeling.ParallelApply(in.task.LFs, cands, workers)
	tr.end(ap)
	mt := tr.begin("labeling.ComputeMetrics", root, 0)
	labeling.ComputeMetrics(m)
	tr.end(mt)
	rep.setLayer("labeling.metrics_ms", tr.ms(mt), "ms")
	return nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func storageCounts(s core.StorageStats) map[string]float64 {
	return map[string]float64{
		"docs": float64(s.Docs), "residentDocs": float64(s.ResidentDocs), "peakResidentDocs": float64(s.PeakResidentDocs),
		"pages": float64(s.DiskPages), "pageCacheHits": float64(s.PageCacheHits), "pageCacheMisses": float64(s.PageCacheMisses),
		"pagesSkipped": float64(s.PagesSkipped), "indexHits": float64(s.IndexHits), "fullScans": float64(s.FullScans),
	}
}
