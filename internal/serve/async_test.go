package serve_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/synth"
)

// canonView renders a view's served KB exactly as /kb does — schema
// columns plus first-wins-deduplicated predicted value tuples — for
// bit-identity comparison against canonicalKB of a live response.
func canonView(task core.Task, v *core.StoreView) (string, error) {
	cols := make([]string, task.Schema.Arity())
	for i, c := range task.Schema.Columns {
		cols[i] = c.Name
	}
	rows := [][]string{}
	seen := map[string]bool{}
	for _, tp := range v.Result().Predicted {
		key := strings.Join(tp.Values, "\x00")
		if !seen[key] {
			seen[key] = true
			rows = append(rows, tp.Values)
		}
	}
	buf, err := json.Marshal(map[string]any{"columns": cols, "tuples": rows})
	return string(buf), err
}

// TestServeAsyncReplayEquivalence is the async-publication acceptance
// test: with two-phase publication on, every (epoch, generation) pair
// a reader ever observes over real HTTP must serve a KB bit-identical
// to a from-scratch replay of the same history — delta chains advanced
// epoch by epoch on a fresh store, model generations retrained
// (warm-started, exactly as the server does) at the epochs the train
// traces record. Run under -race, with retrains deliberately
// overlapping delta ingests so the install path's AdoptModel catch-up
// is exercised, this proves the pair fully determines the served
// bytes.
func TestServeAsyncReplayEquivalence(t *testing.T) {
	const nDocs, batchSize, nReaders = 12, 2, 3
	corpus := synth.Electronics(43, nDocs)
	task := corpus.Tasks[0]
	gold := corpus.GoldTuples[task.Relation]
	opts := core.Options{Seed: 9, Epochs: 2, Workers: 2}
	docs := reparse(t, corpus)

	// Drift and interval are off: the test controls exactly when
	// generations advance, via Train — the same entry point the
	// background trainer and POST /admin/train use.
	srv, err := serve.New(serve.Config{Task: task, Options: opts, Gold: gold, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	type obsKB struct {
		epoch, gen uint64
		kb         string
	}
	var (
		mu   sync.Mutex
		seen []obsKB
	)
	observe := func() error {
		resp, err := fetchJSON(ts.URL + "/kb")
		if err != nil {
			return err
		}
		e, err := num(resp, "epoch")
		if err != nil {
			return err
		}
		g, err := num(resp, "generation")
		if err != nil {
			return err
		}
		kb, err := canonicalKB(resp["columns"], resp["tuples"])
		if err != nil {
			return err
		}
		mu.Lock()
		seen = append(seen, obsKB{epoch: uint64(e), gen: uint64(g), kb: kb})
		mu.Unlock()
		return nil
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < nReaders; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := observe(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	ingest := func(b int) {
		var batch []serve.DocumentUpload
		for i := b * batchSize; i < (b+1)*batchSize; i++ {
			batch = append(batch, uploadFor(corpus, i))
		}
		reply := postJSON(t, ts.URL+"/ingest", map[string]any{"documents": batch}, http.StatusOK)
		if got, want := epochOf(t, reply), uint64(b+1); got != want {
			t.Fatalf("batch %d published epoch %d, want %d", b, got, want)
		}
		if _, ok := reply["generation"]; !ok {
			t.Fatalf("ingest reply lacks generation: %v", reply)
		}
	}

	// Epochs 1-4 as pure delta publishes, then a retrain racing the
	// epoch-5 ingest (the install may need AdoptModel catch-up), then a
	// quiescent retrain through the HTTP route, then one more delta on
	// the new generation — guaranteeing observations where the served
	// epoch is ahead of the generation's training epoch.
	for b := 0; b < 4; b++ {
		ingest(b)
	}
	trainDone := make(chan error, 1)
	go func() {
		_, err := srv.Train()
		trainDone <- err
	}()
	ingest(4)
	if err := <-trainDone; err != nil {
		t.Fatalf("overlapped Train: %v", err)
	}
	trained := postJSON(t, ts.URL+"/admin/train", nil, http.StatusOK)
	if g, _ := trained["generation"].(float64); g < 2 {
		t.Fatalf("second retrain reply = %v, want generation >= 2", trained)
	}
	ingest(5)
	if err := observe(); err != nil { // pin a final (epoch 6, latest gen) observation
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	// ---- The observed history: which generation trained at which
	// epoch, straight from the publication traces.
	trainedAt := map[uint64]uint64{}
	maxGen := uint64(0)
	for _, tr := range srv.Traces() {
		if tr.Kind == "train" && tr.Err == "" {
			trainedAt[tr.Generation] = tr.Epoch
			if tr.Generation > maxGen {
				maxGen = tr.Generation
			}
		}
	}
	if maxGen < 2 {
		t.Fatalf("only %d generations trained; traces = %+v", maxGen, srv.Traces())
	}

	// ---- Replay from scratch: a fresh store over the same batches,
	// one delta chain per generation, retrains applied at the recorded
	// epochs with the server's exact warm-start configuration.
	st := core.NewStore(task, opts)
	t.Cleanup(func() {
		if err := st.Close(); err != nil {
			t.Error(err)
		}
	})
	chains := map[uint64]*core.StoreView{}
	v0, err := st.View(gold)
	if err != nil {
		t.Fatal(err)
	}
	chains[0] = v0
	expected := map[[2]uint64]string{}
	record := func(e uint64) {
		for g, v := range chains {
			c, err := canonView(task, v)
			if err != nil {
				t.Fatal(err)
			}
			expected[[2]uint64{e, g}] = c
		}
	}
	spawn := func(e uint64) {
		for g := uint64(1); g <= maxGen; g++ {
			if trainedAt[g] != e || chains[g] != nil || chains[g-1] == nil {
				continue
			}
			nv, err := chains[g-1].Retrain(core.RetrainConfig{Gold: gold, Generation: g, WarmFrom: chains[g-1]})
			if err != nil {
				t.Fatalf("replay retrain gen %d at epoch %d: %v", g, e, err)
			}
			chains[g] = nv
		}
	}
	spawn(0)
	record(0)
	for b := 0; b*batchSize < nDocs; b++ {
		if err := st.AddDocuments(docs[b*batchSize : (b+1)*batchSize]...); err != nil {
			t.Fatal(err)
		}
		e := uint64(b + 1)
		gens := make([]uint64, 0, len(chains))
		for g := range chains {
			gens = append(gens, g)
		}
		sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
		for _, g := range gens {
			nv, err := st.ViewDelta(chains[g], gold)
			if err != nil {
				t.Fatalf("replay delta gen %d epoch %d: %v", g, e, err)
			}
			chains[g] = nv
		}
		spawn(e)
		record(e)
	}

	// ---- Every observation must match its replayed (epoch,
	// generation) bit for bit.
	gensSeen := map[uint64]bool{}
	lagged := 0
	for _, o := range seen {
		want, ok := expected[[2]uint64{o.epoch, o.gen}]
		if !ok {
			t.Fatalf("reader observed (epoch %d, generation %d), which the replay never produced", o.epoch, o.gen)
		}
		if o.kb != want {
			t.Fatalf("(epoch %d, generation %d): served KB differs from replay\n got: %s\nwant: %s",
				o.epoch, o.gen, o.kb, want)
		}
		gensSeen[o.gen] = true
		if o.epoch > trainedAt[o.gen] {
			lagged++
		}
	}
	if len(gensSeen) < 2 {
		t.Fatalf("readers observed only generations %v; test is vacuous", gensSeen)
	}
	if lagged == 0 {
		t.Fatal("no observation had the served epoch ahead of its generation's training epoch; the delta path went unexercised")
	}
	if want := expected[[2]uint64{uint64(nDocs / batchSize), maxGen}]; !strings.Contains(want, `"tuples":[[`) {
		t.Fatal("final replayed KB is empty; test is vacuous")
	}
	t.Logf("validated %d observations across generations %v (%d ahead of their training epoch)", len(seen), gensSeen, lagged)
}

// TestServeTrainFailureKeepsDelta is the train-degraded surface test:
// a failed background retrain must mark the tenant degraded without
// touching the write path — delta epochs keep publishing and serving
// under the stuck generation — and the next successful retrain clears
// the degradation and advances the generation.
func TestServeTrainFailureKeepsDelta(t *testing.T) {
	corpus := synth.Electronics(77, 6)
	task := corpus.Tasks[0]
	gold := corpus.GoldTuples[task.Relation]
	opts := core.Options{Seed: 5, Epochs: 1, Workers: 2}

	srv, err := serve.New(serve.Config{Task: task, Options: opts, Gold: gold, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	batch := func(lo, hi int) map[string]any {
		var docs []serve.DocumentUpload
		for i := lo; i < hi; i++ {
			docs = append(docs, uploadFor(corpus, i))
		}
		return map[string]any{"documents": docs}
	}

	postJSON(t, ts.URL+"/ingest", batch(0, 3), http.StatusOK)

	// ---- Inject a retrain failure.
	srv.FailNextTrainForTest("injected retrain failure")
	resp, err := http.Post(ts.URL+"/admin/train", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failed retrain status = %d, want 500", resp.StatusCode)
	}

	// Degraded, and visibly so — but the served epoch is untouched.
	h := getJSON(t, ts.URL+"/healthz", http.StatusOK)
	if h["ok"] != false {
		t.Fatalf("train-degraded healthz ok = %v", h["ok"])
	}
	deg, ok := h["degraded"].(map[string]any)
	if !ok || !strings.Contains(deg["error"].(string), "injected retrain failure") {
		t.Fatalf("degraded record = %v", h["degraded"])
	}

	// The write path is unaffected: a delta epoch publishes, serves the
	// new documents under the old generation — and does NOT clear the
	// train degradation (a later delta must never mask a broken
	// trainer).
	postJSON(t, ts.URL+"/ingest", batch(3, 6), http.StatusOK)
	kb := getJSON(t, ts.URL+"/kb", http.StatusOK)
	if epochOf(t, kb) != 2 || kb["generation"].(float64) != 0 {
		t.Fatalf("post-failure delta serves (epoch %v, generation %v), want (2, 0)", kb["epoch"], kb["generation"])
	}
	h = getJSON(t, ts.URL+"/healthz", http.StatusOK)
	if h["ok"] != false {
		t.Fatal("delta publish cleared the train degradation")
	}

	// ---- Recovery: the next retrain succeeds, bumps the generation
	// and clears the degraded record.
	trained := postJSON(t, ts.URL+"/admin/train", nil, http.StatusOK)
	if trained["generation"].(float64) != 1 || trained["modelTrainedAtEpoch"].(float64) != 2 {
		t.Fatalf("recovery retrain reply = %v", trained)
	}
	h = getJSON(t, ts.URL+"/healthz", http.StatusOK)
	if h["ok"] != true {
		t.Fatalf("recovered healthz = %v", h)
	}
	meta := getJSON(t, ts.URL+"/meta", http.StatusOK)
	if meta["generation"].(float64) != 1 || meta["trainLagEpochs"].(float64) != 0 {
		t.Fatalf("recovered /meta publication state = generation %v, lag %v", meta["generation"], meta["trainLagEpochs"])
	}
	if meta["asyncPublish"] != true {
		t.Fatalf("/meta asyncPublish = %v", meta["asyncPublish"])
	}
}

// TestServeBackgroundTrainTriggers covers the two autonomous retrain
// triggers: feature-space drift after a delta publish, and the
// staleness ticker. In both cases the generation must advance without
// any explicit Train call, and the staleness lag must return to zero.
func TestServeBackgroundTrainTriggers(t *testing.T) {
	corpus := synth.Electronics(59, 6)
	task := corpus.Tasks[0]
	gold := corpus.GoldTuples[task.Relation]
	opts := core.Options{Seed: 3, Epochs: 1, Workers: 2}

	waitGeneration := func(t *testing.T, srv *serve.Server, want uint64) *core.StoreView {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for time.Now().Before(deadline) {
			if v := srv.CurrentView(); v.Generation() >= want {
				return v
			}
			time.Sleep(10 * time.Millisecond)
		}
		v := srv.CurrentView()
		t.Fatalf("generation stuck at %d (epoch %d), want >= %d", v.Generation(), v.Epoch(), want)
		return nil
	}

	t.Run("drift", func(t *testing.T) {
		srv, err := serve.New(serve.Config{Task: task, Options: opts, Gold: gold,
			Async: true, TrainDrift: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		if _, err := srv.Ingest(reparse(t, corpus)[:3]); err != nil {
			t.Fatal(err)
		}
		v := waitGeneration(t, srv, 1)
		if v.Epoch() != 1 || v.ModelTrainedAtEpoch() != 1 {
			t.Fatalf("drift-trained view at epoch %d, trainedAt %d", v.Epoch(), v.ModelTrainedAtEpoch())
		}
	})

	t.Run("interval", func(t *testing.T) {
		srv, err := serve.New(serve.Config{Task: task, Options: opts, Gold: gold,
			Async: true, TrainInterval: 25 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		if _, err := srv.Ingest(reparse(t, corpus)[3:]); err != nil {
			t.Fatal(err)
		}
		v := waitGeneration(t, srv, 1)
		if v.Epoch() != 1 || v.ModelTrainedAtEpoch() != 1 {
			t.Fatalf("interval-trained view at epoch %d, trainedAt %d", v.Epoch(), v.ModelTrainedAtEpoch())
		}
	})
}
