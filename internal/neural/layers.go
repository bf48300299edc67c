package neural

import (
	"math"
	"math/rand"
)

// Embedding is a trainable word-embedding table. Rows are vocabulary
// ids; lookups return Vec views sharing the table's storage so
// gradients flow back into the embeddings (trained jointly with the
// rest of the network, Section 4.2).
type Embedding struct {
	Table *Mat
}

// NewEmbedding allocates a vocab×dim table initialized from the given
// initializer function (e.g. the deterministic hashed vectors of
// package nlp) or Xavier noise when init is nil.
func NewEmbedding(vocab, dim int, rng *rand.Rand, init func(id int) []float64) *Embedding {
	t := NewMatXavier(vocab, dim, rng)
	if init != nil {
		for id := 0; id < vocab; id++ {
			if v := init(id); len(v) == dim {
				copy(t.W[id*dim:(id+1)*dim], v)
			}
		}
	}
	return &Embedding{Table: t}
}

// LookupOn returns the embedding of a vocabulary id as a node of tape
// t; out-of-range ids fall back to row 0.
func (e *Embedding) LookupOn(t *Tape, id int) *Vec { return t.row(e.Table, e.row(id)) }

func (e *Embedding) row(id int) int {
	if id < 0 || id >= e.Table.Rows {
		return 0
	}
	return id
}

// Params returns the trainable table.
func (e *Embedding) Params() Params { return Params{e.Table} }

// Shadow returns an embedding over shared weights with a private
// gradient buffer (see Mat.Shadow).
func (e *Embedding) Shadow() *Embedding { return &Embedding{Table: e.Table.Shadow()} }

// LSTM is one direction's long short-term memory cell with input,
// forget and output gates (the equations of Section 2.2):
//
//	i_t = σ(W_i x_t + U_i h_{t-1} + b_i)
//	f_t = σ(W_f x_t + U_f h_{t-1} + b_f)
//	o_t = σ(W_o x_t + U_o h_{t-1} + b_o)
//	c_t = f_t ∘ c_{t-1} + i_t ∘ tanh(W_c x_t + U_c h_{t-1} + b_c)
//	h_t = o_t ∘ tanh(c_t)
type LSTM struct {
	InDim, HidDim  int
	Wi, Ui, Wf, Uf *Mat
	Wo, Uo, Wc, Uc *Mat
	Bi, Bf, Bo, Bc *Mat
}

// NewLSTM allocates an LSTM with Xavier-initialized weights and a
// forget-gate bias of +1 (the standard trick for gradient flow).
func NewLSTM(inDim, hidDim int, rng *rand.Rand) *LSTM {
	l := &LSTM{
		InDim: inDim, HidDim: hidDim,
		Wi: NewMatXavier(hidDim, inDim, rng), Ui: NewMatXavier(hidDim, hidDim, rng),
		Wf: NewMatXavier(hidDim, inDim, rng), Uf: NewMatXavier(hidDim, hidDim, rng),
		Wo: NewMatXavier(hidDim, inDim, rng), Uo: NewMatXavier(hidDim, hidDim, rng),
		Wc: NewMatXavier(hidDim, inDim, rng), Uc: NewMatXavier(hidDim, hidDim, rng),
		Bi: NewMat(hidDim, 1), Bf: NewMat(hidDim, 1),
		Bo: NewMat(hidDim, 1), Bc: NewMat(hidDim, 1),
	}
	for i := range l.Bf.W {
		l.Bf.W[i] = 1
	}
	return l
}

// Step computes one timestep, returning the new hidden and cell states.
// It is one fused op: the forward pass evaluates all four gates in a
// single sweep over the weight rows, and one op record replays the
// backward pass of the equivalent sequence of elementary tape ops —
// the gate's two MatVecs, two Adds and Sigmoid (Tanh for the
// candidate), then c = f∘c_{t-1} + i∘ĉ and h = o∘tanh(c) — with the
// same per-element accumulation order, so gradients are bit-identical
// to that sequence.
func (l *LSTM) Step(t *Tape, x, hPrev, cPrev *Vec) (h, c *Vec) {
	H := l.HidDim
	if x.Len() != l.InDim || hPrev.Len() != H || cPrev.Len() != H {
		panic("neural: LSTM step dimension mismatch")
	}
	h, c = t.node(H), t.node(H)
	acts := t.vals.take(5 * H)
	ai, af, ao, ac, atc := splitActs(acts, H)
	hv, cv := h.V[:H], c.V[:H]
	cp := cPrev.V[:H]
	l.gates(x.V, hPrev.V, ai, af, ao, ac)
	for k := range ai {
		// float64 conversions keep the elementary ops' rounding: the
		// products were separate Mul nodes, so they must not fuse into
		// the sum.
		cv[k] = float64(af[k]*cp[k]) + float64(ai[k]*ac[k])
		atc[k] = math.Tanh(cv[k])
		hv[k] = ao[k] * atc[k]
	}
	if !t.infer {
		vs := t.ptrs.take(2)
		vs[0], vs[1] = cPrev, c
		t.record(op{kind: opLSTMStep, lstm: l, a: x, b: hPrev, vs: vs, out: h, acts: acts})
	}
	return h, c
}

// splitActs splits an LSTM step's record of H-vectors, laid out as
// i, f, o, ĉ, tanh(c), into its five parts.
func splitActs(acts []float64, H int) (i, f, o, cand, tc []float64) {
	return acts[:H:H], acts[H : 2*H : 2*H], acts[2*H : 3*H : 3*H], acts[3*H : 4*H : 4*H], acts[4*H : 5*H : 5*H]
}

// gates writes the four gate activations for input x and previous
// hidden state hp: σ(W x + U h + b) for i, f, o and tanh of the same
// for the candidate ĉ. Each pre-activation is (Wx + Uh) + b, every dot
// product summed left to right — the rounding of MatVec, Add, Add.
func (l *LSTM) gates(x, hp, ai, af, ao, ac []float64) {
	in, H := l.InDim, l.HidDim
	x, hp = x[:in], hp[:H]
	bi, bf, bo, bc := l.Bi.W[:H], l.Bf.W[:H], l.Bo.W[:H], l.Bc.W[:H]
	for r := range ai[:H] {
		wx, ux := r*in, r*H
		si, sf, so, sc := dot4(l.Wi.W[wx:wx+in], l.Wf.W[wx:wx+in], l.Wo.W[wx:wx+in], l.Wc.W[wx:wx+in], x)
		ui, uf, uo, uc := dot4(l.Ui.W[ux:ux+H], l.Uf.W[ux:ux+H], l.Uo.W[ux:ux+H], l.Uc.W[ux:ux+H], hp)
		ai[r] = 1 / (1 + math.Exp(-((si + ui) + bi[r])))
		af[r] = 1 / (1 + math.Exp(-((sf + uf) + bf[r])))
		ao[r] = 1 / (1 + math.Exp(-((so + uo) + bo[r])))
		ac[r] = math.Tanh((sc + uc) + bc[r])
	}
}

// stepBackward is the backward pass of one fused Step. It reproduces,
// in order, the backward rules of the elementary ops Step replaced:
// h = o∘tanh(c), c = f∘c_{t-1} + i∘ĉ, the candidate and gate
// nonlinearities with their bias Adds, then each gate's U and W MatVec
// backward in the order c, o, f, i. Each intermediate gradient is the
// single product that op accumulated into a zeroed buffer, rounded at
// the same point (float64 conversions block FMA fusion across what
// were separate statements).
func (l *LSTM) stepBackward(t *Tape, o *op) {
	H := l.HidDim
	x, hPrev, cPrev, c, h := o.a, o.b, o.vs[0], o.vs[1], o.out
	ai, af, ao, ac, atc := splitActs(o.acts, H)
	if cap(t.scratch) < 5*H {
		t.scratch = make([]float64, 5*H)
	}
	gi, gf, gO, gc, _ := splitActs(t.scratch, H)
	dh, dc := h.G[:H], c.G[:H]
	cp, dcp := cPrev.V[:H], cPrev.G[:H]
	bi, bf, bo, bc := l.Bi.G[:H], l.Bf.G[:H], l.Bo.G[:H], l.Bc.G[:H]
	for k := range gi {
		// h = o ∘ tanh(c)
		dO := float64(dh[k] * atc[k])
		dtc := float64(dh[k] * ao[k])
		// tanh(c), accumulated onto the next step's contribution
		dc[k] += dtc * (1 - atc[k]*atc[k])
		// c = f∘c_{t-1} + i∘ĉ: both products see dc
		dcv := dc[k]
		dI := float64(dcv * ac[k])
		dC := float64(dcv * ai[k])
		dF := float64(dcv * cp[k])
		dcp[k] += dcv * af[k]
		// nonlinearities, then the bias Add
		gc[k] = float64(dC * (1 - ac[k]*ac[k]))
		bc[k] += gc[k]
		gO[k] = float64(dO * ao[k] * (1 - ao[k]))
		bo[k] += gO[k]
		gf[k] = float64(dF * af[k] * (1 - af[k]))
		bf[k] += gf[k]
		gi[k] = float64(dI * ai[k] * (1 - ai[k]))
		bi[k] += gi[k]
	}
	matVecBackward(l.Uc, gc, hPrev.V, hPrev.G)
	matVecBackward(l.Wc, gc, x.V, x.G)
	matVecBackward(l.Uo, gO, hPrev.V, hPrev.G)
	matVecBackward(l.Wo, gO, x.V, x.G)
	matVecBackward(l.Uf, gf, hPrev.V, hPrev.G)
	matVecBackward(l.Wf, gf, x.V, x.G)
	matVecBackward(l.Ui, gi, hPrev.V, hPrev.G)
	matVecBackward(l.Wi, gi, x.V, x.G)
}

// Run processes a sequence left to right from zero initial state,
// returning the hidden state at every timestep.
func (l *LSTM) Run(t *Tape, xs []*Vec) []*Vec {
	h, c := t.node(l.HidDim), t.node(l.HidDim)
	out := t.Vecs(len(xs))
	for i, x := range xs {
		h, c = l.Step(t, x, h, c)
		out[i] = h
	}
	return out
}

// Params returns the LSTM's trainable matrices.
func (l *LSTM) Params() Params {
	return Params{l.Wi, l.Ui, l.Wf, l.Uf, l.Wo, l.Uo, l.Wc, l.Uc, l.Bi, l.Bf, l.Bo, l.Bc}
}

// Shadow returns an LSTM over shared weights with private gradient
// buffers (see Mat.Shadow).
func (l *LSTM) Shadow() *LSTM {
	return &LSTM{
		InDim: l.InDim, HidDim: l.HidDim,
		Wi: l.Wi.Shadow(), Ui: l.Ui.Shadow(), Wf: l.Wf.Shadow(), Uf: l.Uf.Shadow(),
		Wo: l.Wo.Shadow(), Uo: l.Uo.Shadow(), Wc: l.Wc.Shadow(), Uc: l.Uc.Shadow(),
		Bi: l.Bi.Shadow(), Bf: l.Bf.Shadow(), Bo: l.Bo.Shadow(), Bc: l.Bc.Shadow(),
	}
}

// BiLSTM pairs a forward and a backward LSTM; the representation of
// each timestep is the concatenation [h^F_i, h^B_i] (Section 2.2).
type BiLSTM struct {
	Fwd, Bwd *LSTM
}

// NewBiLSTM allocates both directions.
func NewBiLSTM(inDim, hidDim int, rng *rand.Rand) *BiLSTM {
	return &BiLSTM{Fwd: NewLSTM(inDim, hidDim, rng), Bwd: NewLSTM(inDim, hidDim, rng)}
}

// Run returns the concatenated forward/backward hidden states per
// timestep (dimension 2*HidDim).
func (b *BiLSTM) Run(t *Tape, xs []*Vec) []*Vec {
	fwd := b.Fwd.Run(t, xs)
	rev := t.Vecs(len(xs))
	for i := range xs {
		rev[i] = xs[len(xs)-1-i]
	}
	bwdRev := b.Bwd.Run(t, rev)
	out := t.Vecs(len(xs))
	for i := range xs {
		out[i] = t.Concat(fwd[i], bwdRev[len(xs)-1-i])
	}
	return out
}

// OutDim returns the per-timestep output dimension.
func (b *BiLSTM) OutDim() int { return b.Fwd.HidDim + b.Bwd.HidDim }

// Params returns both directions' parameters.
func (b *BiLSTM) Params() Params { return append(b.Fwd.Params(), b.Bwd.Params()...) }

// Shadow returns a BiLSTM over shared weights with private gradient
// buffers (see Mat.Shadow).
func (b *BiLSTM) Shadow() *BiLSTM { return &BiLSTM{Fwd: b.Fwd.Shadow(), Bwd: b.Bwd.Shadow()} }

// Attention is the word-attention mechanism of Section 4.2:
//
//	u_ik = tanh(W_w h_ik + b_w)
//	α_ik = softmax_k(u_ik · u_w)
//	t_i  = Σ_k α_ik u_ik
type Attention struct {
	Ww *Mat
	Bw *Mat
	Uw *Mat
}

// NewAttention allocates attention parameters for hidden dimension
// hidDim with internal dimension attDim.
func NewAttention(hidDim, attDim int, rng *rand.Rand) *Attention {
	return &Attention{
		Ww: NewMatXavier(attDim, hidDim, rng),
		Bw: NewMat(attDim, 1),
		Uw: NewMatXavier(attDim, 1, rng),
	}
}

// Apply aggregates a sequence of hidden states into one vector using
// learned word importances. It also returns the attention weights for
// inspection.
func (a *Attention) Apply(t *Tape, hs []*Vec) (*Vec, *Vec) {
	us := t.Vecs(len(hs))
	scores := t.Vecs(len(hs))
	bw, uw := t.Param(a.Bw), t.Param(a.Uw)
	for k, h := range hs {
		us[k] = t.Tanh(t.Add(t.MatVec(a.Ww, h), bw))
		scores[k] = t.Dot(us[k], uw)
	}
	alpha := t.Softmax(t.Concat(scores...))
	return t.WeightedSum(alpha, us), alpha
}

// OutDim returns the aggregated vector's dimension.
func (a *Attention) OutDim() int { return a.Ww.Rows }

// Params returns the attention parameters.
func (a *Attention) Params() Params { return Params{a.Ww, a.Bw, a.Uw} }

// Shadow returns attention over shared weights with private gradient
// buffers (see Mat.Shadow).
func (a *Attention) Shadow() *Attention {
	return &Attention{Ww: a.Ww.Shadow(), Bw: a.Bw.Shadow(), Uw: a.Uw.Shadow()}
}

// Linear is a fully connected layer y = Wx + b.
type Linear struct {
	W *Mat
	B *Mat
}

// NewLinear allocates a Xavier-initialized linear layer.
func NewLinear(inDim, outDim int, rng *rand.Rand) *Linear {
	return &Linear{W: NewMatXavier(outDim, inDim, rng), B: NewMat(outDim, 1)}
}

// Apply computes Wx + b.
func (l *Linear) Apply(t *Tape, x *Vec) *Vec {
	return t.Add(t.MatVec(l.W, x), t.Param(l.B))
}

// Params returns the layer's parameters.
func (l *Linear) Params() Params { return Params{l.W, l.B} }

// Shadow returns a linear layer over shared weights with private
// gradient buffers (see Mat.Shadow).
func (l *Linear) Shadow() *Linear { return &Linear{W: l.W.Shadow(), B: l.B.Shadow()} }

// MaxPool returns the element-wise maximum over the sequence — the
// pooling strategy attention improves on (Section 2.2); kept as an
// ablation alternative.
func MaxPool(t *Tape, hs []*Vec) *Vec {
	if len(hs) == 0 {
		panic("neural: MaxPool of empty sequence")
	}
	n := hs[0].Len()
	out := t.node(n)
	argmax := t.ints.take(n)
	for i := 0; i < n; i++ {
		best := hs[0].V[i]
		bestK := 0
		for k := 1; k < len(hs); k++ {
			if hs[k].V[i] > best {
				best = hs[k].V[i]
				bestK = k
			}
		}
		out.V[i] = best
		argmax[i] = bestK
	}
	if !t.infer {
		t.record(op{kind: opMaxPool, vs: t.vecs(hs), idx: argmax, out: out})
	}
	return out
}

// NoiseAwareCE computes the noise-aware binary cross-entropy between a
// 2-class logit vector and a probabilistic target p = P(y=+1):
//
//	L = -(p·log q_1 + (1-p)·log q_0),  q = softmax(logits)
//
// It returns the loss value and a 1-vector node whose backward pass
// propagates dL into the logits. Class order: index 0 = "False",
// index 1 = "True".
func NoiseAwareCE(t *Tape, logits *Vec, p float64) (float64, *Vec) {
	if logits.Len() != 2 {
		panic("neural: NoiseAwareCE expects 2 logits")
	}
	q := t.Softmax(logits)
	const eps = 1e-12
	loss := -(p*math.Log(q.V[1]+eps) + (1-p)*math.Log(q.V[0]+eps))
	out := t.node(1)
	out.V[0] = loss
	t.record(op{kind: opNoiseAwareCE, a: q, s: p, out: out})
	return loss, out
}

// SoftmaxProbs evaluates softmax probabilities without recording to a
// tape (inference path).
func SoftmaxProbs(logits []float64) []float64 {
	out := make([]float64, len(logits))
	max := logits[0]
	for _, v := range logits[1:] {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for i, v := range logits {
		out[i] = math.Exp(v - max)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}
