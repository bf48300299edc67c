package core_test

import (
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/synth"
)

// TestStoreViewEquivalence is the serving layer's consistency
// invariant at the core level: after any sequence of ingests, the
// published StoreView's production Result is bit-identical to a
// from-scratch core.Run over the epoch's corpus (train = test = the
// full corpus, production mode), and the view carries the epoch's
// session state faithfully.
func TestStoreViewEquivalence(t *testing.T) {
	corpus := synth.Electronics(61, 7)
	task := corpus.Tasks[0]
	gold := corpus.GoldTuples[task.Relation]
	opts := core.Options{Seed: 7, Epochs: 1, Workers: 4}

	st := newStore(t, task, opts)
	batches := [][]int{{0, 3}, {3, 5}, {5, 7}}
	totalPredicted := 0
	for bi, b := range batches {
		if err := st.AddDocuments(corpus.Docs[b[0]:b[1]]...); err != nil {
			t.Fatal(err)
		}
		view, err := st.View(gold)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := view.Epoch(), uint64(bi+1); got != want {
			t.Fatalf("batch %d: epoch = %d, want %d", bi, got, want)
		}
		prefix := corpus.Docs[:b[1]]
		want := normalizeResult(core.Run(task, prefix, prefix, gold, opts))
		if want.TrainCandidates == 0 {
			t.Fatalf("batch %d: degenerate baseline", bi)
		}
		if got := normalizeResult(view.Result()); !reflect.DeepEqual(got, want) {
			t.Errorf("batch %d: view Result differs from from-scratch Run\n got: %+v\nwant: %+v", bi, got, want)
		}
		if got := view.NumDocs(); got != b[1] {
			t.Errorf("batch %d: view has %d docs, want %d", bi, got, b[1])
		}
		// The materialized KB deduplicates by value tuple (set
		// semantics over the schema columns); Predicted deduplicates
		// by (doc, values). The table must hold exactly the distinct
		// value tuples.
		distinct := map[string]bool{}
		for _, tp := range view.Result().Predicted {
			distinct[strings.Join(tp.Values, "\x00")] = true
		}
		if got := view.KB().Len(); got != len(distinct) {
			t.Errorf("batch %d: KB has %d rows, want %d distinct value tuples", bi, got, len(distinct))
		}
		totalPredicted += len(view.Result().Predicted)
		if len(view.Marginals()) != len(view.Candidates()) {
			t.Errorf("batch %d: %d marginals for %d candidates", bi, len(view.Marginals()), len(view.Candidates()))
		}
	}
	if totalPredicted == 0 {
		t.Fatal("no epoch predicted any tuple; test is vacuous")
	}
}

// TestStoreViewClassifyMatchesRun checks the ad-hoc classification
// path: classifying an already-ingested document against the view's
// model must reproduce exactly the view Result's positive tuples for
// that document — same candidates, same features, same model, no
// store mutation.
func TestStoreViewClassifyMatchesRun(t *testing.T) {
	corpus := synth.Electronics(17, 6)
	task := corpus.Tasks[0]
	gold := corpus.GoldTuples[task.Relation]
	st := newStore(t, task, core.Options{Seed: 3, Epochs: 1})
	if err := st.AddDocuments(corpus.Docs...); err != nil {
		t.Fatal(err)
	}
	view, err := st.View(gold)
	if err != nil {
		t.Fatal(err)
	}
	epochBefore := st.Epoch()
	checked := 0
	for _, doc := range corpus.Docs {
		got, err := view.ClassifyDocument(doc)
		if err != nil {
			t.Fatal(err)
		}
		var want []core.GoldTuple
		for _, tp := range view.Result().Predicted {
			if tp.Doc == doc.Name {
				want = append(want, tp)
			}
		}
		if !reflect.DeepEqual(got.Tuples, want) {
			t.Errorf("doc %s: classify tuples = %v, want %v", doc.Name, got.Tuples, want)
		}
		if len(want) > 0 {
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no document contributed positive tuples; test is vacuous")
	}
	if st.Epoch() != epochBefore {
		t.Fatal("ClassifyDocument mutated the store epoch")
	}
}

// TestStoreViewConcurrentReaders documents the serving concurrency
// contract at the core level: direct Store mutation is
// writer-goroutine-only, while StoreView accessors are safe from any
// number of goroutines — including concurrently with the writer
// ingesting more documents and publishing fresh views. Run under
// -race, this is the satellite coverage for Store misuse vs. view
// safety.
func TestStoreViewConcurrentReaders(t *testing.T) {
	corpus := synth.Electronics(29, 6)
	task := corpus.Tasks[0]
	gold := corpus.GoldTuples[task.Relation]
	st := newStore(t, task, core.Options{Seed: 5, Epochs: 1})
	if err := st.AddDocuments(corpus.Docs[:2]...); err != nil {
		t.Fatal(err)
	}
	first, err := st.View(gold)
	if err != nil {
		t.Fatal(err)
	}
	var published atomic.Pointer[core.StoreView]
	published.Store(first)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := published.Load()
				epoch := v.Epoch()
				if n := len(v.Candidates()); n != len(v.Marginals()) {
					t.Errorf("epoch %d: %d candidates vs %d marginals", epoch, n, len(v.Marginals()))
					return
				}
				_ = v.DocNames()
				_ = v.LFNames()
				_ = v.LFMetrics()
				_ = v.FeatureStats()
				_ = v.TableRows()
				_ = v.KB().Tuples()
				_ = v.Votes(0)
				// The model forward pass is the expensive accessor;
				// exercise it on a fraction of iterations so the
				// writer keeps making progress under -race.
				if i%4 == 0 {
					if _, err := v.ClassifyDocument(corpus.Docs[0]); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}

	// The writer goroutine: ingest the rest one document at a time,
	// publishing a fresh view after each mutation.
	for _, doc := range corpus.Docs[2:] {
		if err := st.AddDocuments(doc); err != nil {
			t.Error(err)
			break
		}
		v, err := st.View(gold)
		if err != nil {
			t.Error(err)
			break
		}
		published.Store(v)
	}
	close(stop)
	wg.Wait()
}
