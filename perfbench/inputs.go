package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/core"
	"repro/internal/datamodel"
	"repro/internal/parser"
	"repro/internal/synth"
)

// inputs is one workload's generated corpus: the electronics documents
// as the bytes a user would hand the program (HTML plus the rendered
// visual layout), the extraction task, and its gold tuples. The
// generator's own parsed documents are dropped; the program only ever
// sees the bytes.
type inputs struct {
	names []string
	html  []string
	vdoc  []string
	task  core.Task
	gold  []core.GoldTuple
}

// What an ingest or a batch pass costs differs a lot from one corpus to
// the next: on about a third of corpora the label model's EM stops at
// its iteration cap instead of converging. batch_kbc and serve_mixed
// therefore spread each run over several corpora, each generated from
// its own seed derived from -seed, and pool their samples, so that no
// single corpus decides a run's figures.

// maxCorpora bounds the corpora of one run; corpusSeed derives the
// seed of a run's k-th corpus, and distinct -seed values never share a
// corpus.
const maxCorpora = 8

func corpusSeed(seed int64, k int) int64 { return seed*maxCorpora + int64(k) }

// genInputs generates n electronics documents from seed. The task is
// HasCollectorCurrent, the corpus's first relation.
func genInputs(seed int64, n int) inputs {
	c := synth.Electronics(seed, n)
	in := inputs{task: c.Tasks[0]}
	in.gold = c.GoldTuples[in.task.Relation]
	for i, src := range c.Sources {
		in.names = append(in.names, c.Docs[i].Name)
		in.html = append(in.html, src["html"])
		in.vdoc = append(in.vdoc, src["vdoc"])
	}
	return in
}

// hash fingerprints the generated document bytes, so two runs can
// show they measured the same inputs.
func (in inputs) hash() string {
	h := sha256.New()
	for i := range in.names {
		fmt.Fprintf(h, "%d:%s\x00%d:%s\x00%d:%s\x00", len(in.names[i]), in.names[i],
			len(in.html[i]), in.html[i], len(in.vdoc[i]), in.vdoc[i])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// bytes is the total size of the document sources.
func (in inputs) bytes() int {
	n := 0
	for i := range in.names {
		n += len(in.html[i]) + len(in.vdoc[i])
	}
	return n
}

// parseDoc turns document i's bytes into a document the way the
// serving layer's ingest does: HTML parse, then align the rendered
// layout. Each of the three parser calls is a span when tracing.
func (in inputs) parseDoc(i int, tr *tracer, parent, iter int) (*datamodel.Document, error) {
	sp := tr.begin("parser.ParseHTML", parent, iter)
	doc := parser.ParseHTML(in.names[i], in.html[i])
	tr.end(sp)
	sp = tr.begin("parser.ParseVDoc", parent, iter)
	v, err := parser.ParseVDoc(in.vdoc[i])
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("document %s: vdoc: %w", in.names[i], err)
	}
	sp = tr.begin("parser.AlignVisual", parent, iter)
	parser.AlignVisual(doc, v)
	tr.end(sp)
	return doc, nil
}

// parseRange parses documents [lo, hi).
func (in inputs) parseRange(lo, hi int, tr *tracer, parent, iter int) ([]*datamodel.Document, error) {
	docs := make([]*datamodel.Document, 0, hi-lo)
	for i := lo; i < hi; i++ {
		d, err := in.parseDoc(i, tr, parent, iter)
		if err != nil {
			return nil, err
		}
		docs = append(docs, d)
	}
	return docs, nil
}
