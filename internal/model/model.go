// Package model implements Fonduer's discriminative models: the
// multimodal recurrent network of Section 4.2 (a bidirectional LSTM
// with word attention over each mention's sentence, with candidate
// markers, whose last layer combines the textual representation with
// the extended feature library), and the baselines Section 5.3.3
// compares against — a text-only Bi-LSTM with attention, a human-tuned
// sparse feature model, an SRV-style HTML-feature learner, and the
// document-level RNN.
package model

import (
	"math/rand"
	"strings"
	"time"

	"repro/internal/candidates"
	"repro/internal/neural"
	"repro/internal/nlp"
	"repro/internal/pool"
)

// Example is one training or inference instance: a candidate, its
// active extended-feature columns, and (for training) the marginal
// probability produced by the generative label model.
type Example struct {
	Cand        *candidates.Candidate
	SparseFeats []int
	// Marginal is the noise-aware training target P(y = true).
	Marginal float64
}

// Config selects the model variant and its dimensions.
type Config struct {
	// EmbedDim is the word-embedding dimension (default 16).
	EmbedDim int
	// HidDim is the per-direction LSTM hidden size (default 16).
	HidDim int
	// AttDim is the attention space dimension (default 16).
	AttDim int
	// NumFeatures is the extended-feature space size (required when
	// UseSparse).
	NumFeatures int
	// NumMentions is the relation arity (required when UseText).
	NumMentions int

	// UseText enables the per-mention Bi-LSTM + attention encoder.
	UseText bool
	// UseSparse enables the extended feature library in the last layer.
	UseSparse bool
	// DocLevel replaces the per-mention encoder with one Bi-LSTM over
	// the whole document sequence (the Table 6 baseline).
	DocLevel bool
	// UseMaxPool replaces attention with max pooling (ablation).
	UseMaxPool bool

	// MaxSentTokens caps tokens per mention context window (default 24).
	MaxSentTokens int
	// MaxDocTokens caps the document-level sequence (default 400).
	MaxDocTokens int
	// Seed makes initialization and shuffling deterministic.
	Seed int64
}

func (c *Config) defaults() {
	if c.EmbedDim <= 0 {
		c.EmbedDim = 16
	}
	if c.HidDim <= 0 {
		c.HidDim = 16
	}
	if c.AttDim <= 0 {
		c.AttDim = 16
	}
	if c.MaxSentTokens <= 0 {
		c.MaxSentTokens = 24
	}
	if c.MaxDocTokens <= 0 {
		c.MaxDocTokens = 400
	}
}

// Model is a trainable candidate classifier.
type Model struct {
	cfg   Config
	vocab *nlp.Vocab
	emb   *neural.Embedding
	bi    *neural.BiLSTM
	att   *neural.Attention
	// headText maps the concatenated mention representations to the
	// two class logits; headSparse adds the feature-library logits.
	headText   *neural.Linear
	headSparse *neural.Mat
	bias       *neural.Mat
	params     neural.Params
	rng        *rand.Rand
}

// New constructs a model for the given configuration and candidate
// sample (used to build the vocabulary before training).
func New(cfg Config, sample []Example) *Model {
	cfg.defaults()
	m := &Model{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed + 1))}
	m.vocab = nlp.NewVocab()
	if cfg.UseText || cfg.DocLevel {
		for _, ex := range sample {
			for _, tok := range m.tokens(ex) {
				m.vocab.ID(tok)
			}
		}
		m.vocab.Freeze()
		hashed := nlp.NewEmbedder(cfg.EmbedDim)
		m.emb = neural.NewEmbedding(m.vocab.Len(), cfg.EmbedDim, m.rng, func(id int) []float64 {
			return hashed.Embed(m.vocab.Word(id))
		})
		m.bi = neural.NewBiLSTM(cfg.EmbedDim, cfg.HidDim, m.rng)
		m.att = neural.NewAttention(m.bi.OutDim(), cfg.AttDim, m.rng)
		textDim := cfg.AttDim * cfg.NumMentions
		if cfg.DocLevel {
			textDim = cfg.AttDim
		}
		m.headText = neural.NewLinear(textDim, 2, m.rng)
		m.params = append(m.params, m.emb.Params()...)
		m.params = append(m.params, m.bi.Params()...)
		m.params = append(m.params, m.att.Params()...)
		m.params = append(m.params, m.headText.Params()...)
	}
	if cfg.UseSparse {
		m.headSparse = neural.NewMat(2, cfg.NumFeatures)
		m.params = append(m.params, m.headSparse)
	}
	m.bias = neural.NewMat(2, 1)
	m.params = append(m.params, m.bias)
	return m
}

// tokens produces the model's token sequence(s) for a candidate,
// flattened (mention sequences are encoded separately at forward time;
// this flattening is only for vocabulary building).
func (m *Model) tokens(ex Example) []string {
	var out []string
	if m.cfg.DocLevel {
		return docTokens(ex.Cand, m.cfg.MaxDocTokens)
	}
	for i := range ex.Cand.Mentions {
		out = append(out, mentionTokens(ex.Cand, i, m.cfg.MaxSentTokens)...)
	}
	return out
}

// mentionTokens returns the lowercased context window of mention i
// with the paper's candidate markers ([[i ... i]]) inserted around the
// mention to draw the network's attention to the candidate itself.
func mentionTokens(c *candidates.Candidate, i, maxTokens int) []string {
	sp := c.Mentions[i].Span
	words := sp.Sentence.Words
	// Window around the span.
	half := (maxTokens - sp.Len() - 2) / 2
	if half < 1 {
		half = 1
	}
	lo := sp.Start - half
	if lo < 0 {
		lo = 0
	}
	hi := sp.End + half
	if hi > len(words) {
		hi = len(words)
	}
	out := make([]string, 0, hi-lo+2)
	for k := lo; k < hi; k++ {
		if k == sp.Start {
			out = append(out, marker(i, true))
		}
		out = append(out, strings.ToLower(words[k]))
		if k == sp.End-1 {
			out = append(out, marker(i, false))
		}
	}
	return out
}

func marker(i int, open bool) string {
	if open {
		return "[[" + string(rune('0'+i))
	}
	return string(rune('0'+i)) + "]]"
}

// docTokens returns the whole document's lowercased word sequence with
// markers at the mention positions, capped to maxTokens centered on
// the first mention (the document-level RNN's input).
func docTokens(c *candidates.Candidate, maxTokens int) []string {
	doc := c.Doc()
	type markerPos struct {
		sent  int
		word  int
		token string
	}
	var markers []markerPos
	for i, men := range c.Mentions {
		markers = append(markers,
			markerPos{men.Span.Sentence.Position, men.Span.Start, marker(i, true)},
			markerPos{men.Span.Sentence.Position, men.Span.End, marker(i, false)})
	}
	var out []string
	for _, s := range doc.Sentences() {
		for w := 0; w <= len(s.Words); w++ {
			for _, mk := range markers {
				if mk.sent == s.Position && mk.word == w {
					out = append(out, mk.token)
				}
			}
			if w < len(s.Words) {
				out = append(out, strings.ToLower(s.Words[w]))
			}
		}
	}
	if len(out) > maxTokens {
		// Keep a window starting at the first marker.
		first := 0
		for i, tok := range out {
			if strings.HasPrefix(tok, "[[") {
				first = i
				break
			}
		}
		lo := first - maxTokens/4
		if lo < 0 {
			lo = 0
		}
		hi := lo + maxTokens
		if hi > len(out) {
			hi = len(out)
			lo = hi - maxTokens
		}
		out = out[lo:hi]
	}
	return out
}

// seqs returns the token-id sequences the text encoder reads for a
// candidate: one per mention, or the single document sequence of the
// document-level model; nil for sparse-only models. Empty sequences
// become the single token "<pad>".
func (m *Model) seqs(ex Example) [][]int {
	var toks [][]string
	switch {
	case m.cfg.DocLevel:
		toks = [][]string{docTokens(ex.Cand, m.cfg.MaxDocTokens)}
	case m.cfg.UseText:
		toks = make([][]string, len(ex.Cand.Mentions))
		for i := range toks {
			toks[i] = mentionTokens(ex.Cand, i, m.cfg.MaxSentTokens)
		}
	}
	out := make([][]int, len(toks))
	for i, ts := range toks {
		if len(ts) == 0 {
			ts = []string{"<pad>"}
		}
		ids := make([]int, len(ts))
		for k, tok := range ts {
			ids[k] = m.vocab.ID(tok)
		}
		out[i] = ids
	}
	return out
}

// forward builds the candidate's logits on tape t.
func (m *Model) forward(t *neural.Tape, ex Example) *neural.Vec {
	return m.forwardSeqs(t, m.seqs(ex), ex.SparseFeats)
}

// forwardSeqs builds the logits from a candidate's token-id sequences
// (see seqs) and its sparse feature columns.
func (m *Model) forwardSeqs(t *neural.Tape, seqs [][]int, feats []int) *neural.Vec {
	logits := t.Param(m.bias)
	if m.cfg.DocLevel {
		seq := m.encodeSeq(t, seqs[0])
		logits = t.Add(logits, m.headText.Apply(t, seq))
	} else if m.cfg.UseText {
		reps := t.Vecs(len(seqs))
		for i, ids := range seqs {
			reps[i] = m.encodeSeq(t, ids)
		}
		logits = t.Add(logits, m.headText.Apply(t, t.Concat(reps...)))
	}
	if m.cfg.UseSparse {
		logits = t.Add(logits, t.SparseLinear(m.headSparse, feats))
	}
	return logits
}

// encodeSeq embeds a token-id sequence, runs the Bi-LSTM, and
// aggregates with attention (or max pooling in the ablation variant).
func (m *Model) encodeSeq(t *neural.Tape, ids []int) *neural.Vec {
	xs := t.Vecs(len(ids))
	for i, id := range ids {
		xs[i] = m.emb.LookupOn(t, id)
	}
	hs := m.bi.Run(t, xs)
	if m.cfg.UseMaxPool {
		// Project pooled hidden state into the attention dimension so
		// head shapes stay identical across the ablation.
		pooled := neural.MaxPool(t, hs)
		return t.Tanh(t.Add(t.MatVec(m.att.Ww, pooled), t.Param(m.att.Bw)))
	}
	agg, _ := m.att.Apply(t, hs)
	return agg
}

// TrainOptions configure Train.
//
// Zero-value sentinels: numeric fields treat 0 as "use the default"
// (documented per field). Where zero is itself a meaningful setting —
// learning-rate decay turned off — use the corresponding *Override
// pointer field, which expresses every value exactly (the same
// convention as core.Options.ThresholdOverride).
type TrainOptions struct {
	Epochs int     // default 10
	LR     float64 // default 0.01
	Clip   float64 // gradient clip (default 5)
	// L2 is the weight-decay coefficient (default 0, off). Weight
	// decay keeps rare identity features (e.g. a part number seen in
	// one document) from dominating generic multimodal features.
	L2 float64
	// LRDecay divides the learning rate by (1 + LRDecay*epoch),
	// damping late-training oscillation. The zero value is a sentinel
	// meaning "use the default 0.15"; disabling decay entirely is only
	// reachable through LRDecayOverride.
	LRDecay float64
	// LRDecayOverride, when non-nil, sets the decay coefficient
	// exactly — including 0 (off) — and takes precedence over LRDecay.
	LRDecayOverride *float64
	// Batch is the minibatch size: per-example gradients are averaged
	// over Batch examples and applied as one Adam step. The zero value
	// is a sentinel meaning "use the default 1" — one step per example,
	// the classic per-example trajectory. (0 is not a meaningful batch
	// size, so no override pointer is needed.) Results are a function
	// of Batch but never of Workers.
	Batch int
	// Workers bounds the goroutines computing a minibatch's
	// per-example gradients concurrently; <=0 means GOMAXPROCS.
	// Training results are bit-identical at any worker count: each
	// minibatch position owns a private gradient buffer, and buffers
	// are reduced in fixed example-index order (see Train).
	Workers int
	// Warm, when non-nil, copies the previous generation's trained
	// weights over this model's fresh initialization before the first
	// epoch. Dense layers copy whole matrices (their shapes are fixed
	// by Config), embedding rows are matched by word through both
	// frozen vocabularies, and sparse-head columns are matched through
	// WarmFeats; anything unmatched — new words, new features — keeps
	// its deterministic fresh initialization. The copy is a pure
	// function of the two models plus WarmFeats, so warm-started
	// training stays bit-reproducible.
	Warm *Model
	// WarmFeats maps this model's sparse feature columns to Warm's
	// columns (new index → old index). Required for the sparse head to
	// transfer when Warm is set; columns absent from the map keep their
	// zero initialization.
	WarmFeats map[int]int
}

func (o *TrainOptions) defaults() {
	if o.Epochs <= 0 {
		o.Epochs = 10
	}
	if o.LR <= 0 {
		o.LR = 0.01
	}
	if o.Clip <= 0 {
		o.Clip = 5
	}
	if o.LRDecayOverride != nil {
		o.LRDecay = *o.LRDecayOverride
	} else if o.LRDecay == 0 {
		o.LRDecay = 0.15
	}
	if o.Batch <= 0 {
		o.Batch = 1
	}
}

// TrainStats reports training cost, for the Table 6 runtime comparison.
type TrainStats struct {
	Epochs        int
	FinalLoss     float64
	SecsPerEpoch  float64
	TotalDuration time.Duration
}

// shadow returns a replica of the model for one minibatch slot of
// data-parallel training: every layer shares the master's weight
// storage but accumulates gradients into private buffers, while the
// immutable pieces — config, frozen vocabulary — are shared directly.
// Forward/backward passes through distinct shadows are race-free
// because nothing mutable is shared; weights must not be updated while
// shadow passes are in flight. The replica's params list mirrors the
// master's construction order exactly, which is what lets
// Params.AccumGrad merge the two position by position.
func (m *Model) shadow() *Model {
	s := &Model{cfg: m.cfg, vocab: m.vocab}
	if m.emb != nil {
		s.emb = m.emb.Shadow()
		s.bi = m.bi.Shadow()
		s.att = m.att.Shadow()
		s.headText = m.headText.Shadow()
		s.params = append(s.params, s.emb.Params()...)
		s.params = append(s.params, s.bi.Params()...)
		s.params = append(s.params, s.att.Params()...)
		s.params = append(s.params, s.headText.Params()...)
	}
	if m.headSparse != nil {
		s.headSparse = m.headSparse.Shadow()
		s.params = append(s.params, s.headSparse)
	}
	s.bias = m.bias.Shadow()
	s.params = append(s.params, s.bias)
	return s
}

// trainSlot is one minibatch position's private training state: a
// model replica and a reusable tape. Slot 0 trains the master model
// itself — its gradients are the first term of the reduction, so
// accumulating them in place equals adding them to a zeroed master —
// and every other slot a shadow (shared weights, private gradients).
// Slot k always computes the k-th example of the current minibatch,
// whichever pool worker picks it up, so the work done per slot — and
// the gradients it yields — never depends on scheduling.
type trainSlot struct {
	model *Model
	tape  *neural.Tape
	loss  float64
}

// Train fits the model with Adam on the noise-aware cross-entropy
// against the examples' marginals, using deterministic data-parallel
// minibatch SGD:
//
//  1. Each epoch shuffles the example order (seeded rng, unchanged
//     from the sequential implementation).
//  2. For every minibatch of opts.Batch examples, per-example
//     gradients are computed concurrently on up to opts.Workers
//     goroutines — one model replica and one reusable tape per slot,
//     no shared mutable state.
//  3. Slot gradients are reduced into the master accumulator in fixed
//     example-index order, averaged over the batch, clipped, and
//     applied as a single Adam step.
//
// Because slot k's gradient is a pure function of the weights and
// example k, and the reduction order is fixed, the trained weights are
// bit-identical at any worker count. At Batch=1 the reduction is
// empty and the trajectory is exactly the per-example sequential loop
// this implementation replaced.
//
// Each example's token ids are looked up once, before the first
// epoch, and each slot's tape is reset rather than rebuilt, so an
// epoch's forward and backward passes allocate nothing once the tapes
// have grown to the largest example.
func (m *Model) Train(examples []Example, opts TrainOptions) TrainStats {
	opts.defaults()
	if opts.Warm != nil {
		m.warmStart(opts.Warm, opts.WarmFeats)
	}
	optim := neural.NewAdam(opts.LR)
	optim.WeightDecay = opts.L2
	order := make([]int, len(examples))
	for i := range order {
		order[i] = i
	}
	seqs := make([][][]int, len(examples))
	for i, ex := range examples {
		seqs[i] = m.seqs(ex)
	}
	nslots := opts.Batch
	if nslots > len(examples) {
		nslots = len(examples)
	}
	if nslots < 1 {
		nslots = 1
	}
	slots := make([]*trainSlot, nslots)
	for k := range slots {
		sm := m
		if k > 0 {
			sm = m.shadow()
		}
		slots[k] = &trainSlot{model: sm, tape: neural.NewTape()}
	}
	start := time.Now()
	var lastLoss float64
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		optim.LR = opts.LR / (1 + opts.LRDecay*float64(epoch))
		m.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		total := 0.0
		for base := 0; base < len(order); base += nslots {
			n := len(order) - base
			if n > nslots {
				n = nslots
			}
			pool.Run(n, opts.Workers, func(k int) {
				idx := order[base+k]
				slots[k].step(seqs[idx], examples[idx])
			})
			for k := 1; k < n; k++ {
				m.params.AccumGrad(slots[k].model.params)
			}
			for k := 0; k < n; k++ {
				total += slots[k].loss
			}
			if n > 1 {
				m.params.ScaleGrad(1 / float64(n))
			}
			m.params.ClipGrad(opts.Clip)
			optim.Step(m.params)
		}
		if len(examples) > 0 {
			lastLoss = total / float64(len(examples))
		}
	}
	dur := time.Since(start)
	st := TrainStats{Epochs: opts.Epochs, FinalLoss: lastLoss, TotalDuration: dur}
	if opts.Epochs > 0 {
		st.SecsPerEpoch = dur.Seconds() / float64(opts.Epochs)
	}
	return st
}

// step computes one example's loss and leaves its gradient in the
// slot model's (zeroed) gradient buffers.
func (s *trainSlot) step(seqs [][]int, ex Example) {
	s.model.params.ZeroGrad()
	s.tape.Reset()
	logits := s.model.forwardSeqs(s.tape, seqs, ex.SparseFeats)
	loss, node := neural.NoiseAwareCE(s.tape, logits, ex.Marginal)
	s.loss = loss
	s.tape.Backward(node)
}

// warmStart overwrites this model's fresh initialization with weights
// from src wherever the two parameter spaces line up. Only the
// vocabulary (embedding rows) and the sparse feature head (columns)
// can differ in shape between generations of the same Config; every
// other layer's dimensions are fixed by Config, so those copy whole.
// Writes are independent per destination cell, so iteration order —
// including map order over feats — cannot affect the result.
func (m *Model) warmStart(src *Model, feats map[int]int) {
	if m.emb != nil && src.emb != nil {
		dim := m.cfg.EmbedDim
		for id := 0; id < m.vocab.Len(); id++ {
			w := m.vocab.Word(id)
			sid := src.vocab.ID(w)
			if sid == nlp.UnknownID && w != "<unk>" {
				continue // new word: keep its deterministic hashed init
			}
			copy(m.emb.Table.W[id*dim:(id+1)*dim], src.emb.Table.W[sid*dim:(sid+1)*dim])
		}
		copyMatched(m.bi.Params(), src.bi.Params())
		copyMatched(m.att.Params(), src.att.Params())
		copyMatched(m.headText.Params(), src.headText.Params())
	}
	if m.headSparse != nil && src.headSparse != nil {
		for newCol, oldCol := range feats {
			if newCol < 0 || newCol >= m.headSparse.Cols || oldCol < 0 || oldCol >= src.headSparse.Cols {
				continue
			}
			for r := 0; r < m.headSparse.Rows && r < src.headSparse.Rows; r++ {
				m.headSparse.W[r*m.headSparse.Cols+newCol] = src.headSparse.W[r*src.headSparse.Cols+oldCol]
			}
		}
	}
	copyMatched(neural.Params{m.bias}, neural.Params{src.bias})
}

// copyMatched copies weights pairwise between two parameter lists
// wherever positions agree in shape (they always do for same-Config
// dense layers; the guard makes a mismatch inert rather than a panic).
func copyMatched(dst, src neural.Params) {
	for i := 0; i < len(dst) && i < len(src); i++ {
		if dst[i].Rows == src[i].Rows && dst[i].Cols == src[i].Cols {
			copy(dst[i].W, src[i].W)
		}
	}
}

// PredictProb returns the marginal probability that the candidate is a
// true relation mention.
func (m *Model) PredictProb(ex Example) float64 {
	return m.PredictProbs([]Example{ex})[0]
}

// PredictProbs returns PredictProb for every example, in order. One
// forward-only tape, private to the call and reset between examples,
// serves the whole batch, so a batch allocates about as much as its
// largest example. The model is only read: concurrent calls are safe.
func (m *Model) PredictProbs(exs []Example) []float64 {
	out := make([]float64, len(exs))
	t := neural.NewInferenceTape()
	for i, ex := range exs {
		t.Reset()
		logits := m.forward(t, ex)
		out[i] = neural.SoftmaxProbs(logits.V)[1]
	}
	return out
}

// Classify applies the user-specified threshold over the output
// marginals (Section 3.2, Classification).
func (m *Model) Classify(ex Example, threshold float64) bool {
	return m.PredictProb(ex) > threshold
}

// ParamCount returns the number of trainable scalars.
func (m *Model) ParamCount() int { return m.params.Count() }
