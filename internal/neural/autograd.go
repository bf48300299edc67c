// Package neural is the from-scratch deep-learning substrate Fonduer's
// discriminative model runs on: a small reverse-mode automatic
// differentiation engine over vectors, parameter containers with Adam
// and SGD optimizers, and the layers the paper's model needs — word
// embeddings, LSTM cells (Section 2.2), bidirectional composition, the
// word-attention mechanism, and linear/softmax heads with a noise-aware
// cross-entropy loss that accepts the probabilistic labels produced by
// the generative label model.
//
// Everything is float64. A single tape is single-threaded, but the
// shadow-parameter machinery (Mat.Shadow, Params.AccumGrad) lets any
// number of goroutines build independent graphs over shared weights
// with private gradient buffers — the substrate of the model package's
// deterministic data-parallel training. Gradient correctness is
// enforced by numeric gradient checks in the tests.
package neural

import "math"

// Tape records operations for reverse-mode differentiation. Each
// forward op appends a typed op record; Backward replays the records
// in reverse order. A Tape is built per training example
// (define-by-run) and reused across examples with Reset.
//
// The tape owns the storage of every node it creates: values and
// gradients come from a float slab, node headers from a node slab, and
// Reset recycles both, so a tape that has seen an example of a given
// shape builds the next one without allocating. Nodes returned by a
// tape are valid until its next Reset.
type Tape struct {
	ops   []op
	vals  slab[float64]
	nodes slab[Vec]
	ptrs  slab[*Vec]
	ints  slab[int]
	// infer marks a forward-only tape: no op is recorded and nodes
	// carry no gradient storage.
	infer bool
	// scratch holds the LSTM step's intermediate gradients during
	// Backward.
	scratch []float64
}

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{} }

// NewInferenceTape returns a forward-only tape: it computes node
// values but records no backward ops and gives nodes no gradient
// buffers. Backward on it panics.
func NewInferenceTape() *Tape { return &Tape{infer: true} }

// Reset clears the tape for reuse, keeping its op list and node
// storage. Every node the tape returned before the call is invalid
// after it.
func (t *Tape) Reset() {
	t.ops = t.ops[:0]
	t.vals.reset()
	t.nodes.reset()
	t.ptrs.reset()
	t.ints.reset()
}

// slab hands out zeroed slices carved from a list of chunks that
// Reset keeps, so steady-state use allocates nothing. Chunks never
// move, which keeps previously returned slices valid until reset.
type slab[T any] struct {
	chunks [][]T
	cur    int // chunk being filled
	off    int // fill offset within chunks[cur]
}

// slabChunk is the minimum chunk length in elements.
const slabChunk = 256

// take returns n zeroed elements.
func (s *slab[T]) take(n int) []T {
	for ; s.cur < len(s.chunks); s.cur, s.off = s.cur+1, 0 {
		if c := s.chunks[s.cur]; s.off+n <= len(c) {
			out := c[s.off : s.off+n : s.off+n]
			s.off += n
			clear(out)
			return out
		}
	}
	size := slabChunk
	if k := len(s.chunks); k > 0 {
		size = 2 * len(s.chunks[k-1])
	}
	if size < n {
		size = n
	}
	s.chunks = append(s.chunks, make([]T, size))
	s.cur, s.off = len(s.chunks)-1, n
	return s.chunks[s.cur][:n:n]
}

func (s *slab[T]) reset() { s.cur, s.off = 0, 0 }

// Vec is a node in the computation graph: a value vector and its
// gradient accumulator.
type Vec struct {
	V []float64
	G []float64
}

// Len returns the vector's dimension.
func (v *Vec) Len() int { return len(v.V) }

// NewVec allocates a zero vector node of dimension n.
func NewVec(n int) *Vec {
	return &Vec{V: make([]float64, n), G: make([]float64, n)}
}

// FromSlice wraps values in a leaf node (gradient is tracked but the
// values are external inputs).
func FromSlice(vals []float64) *Vec {
	v := NewVec(len(vals))
	copy(v.V, vals)
	return v
}

// node returns a zero node of dimension n from the tape's storage.
func (t *Tape) node(n int) *Vec {
	v := &t.nodes.take(1)[0]
	if t.infer {
		v.V = t.vals.take(n)
		return v
	}
	buf := t.vals.take(2 * n)
	v.V, v.G = buf[:n:n], buf[n:]
	return v
}

// Param returns a node viewing the whole of m — values m.W, gradients
// m.G — so a bias participates in the graph directly.
func (t *Tape) Param(m *Mat) *Vec {
	v := &t.nodes.take(1)[0]
	v.V, v.G = m.W, m.G
	return v
}

// row returns a node viewing row r of m; the view shares storage, so
// gradients flow into the matrix.
func (t *Tape) row(m *Mat, r int) *Vec {
	if r < 0 || r >= m.Rows {
		panic("neural: row out of range")
	}
	v := &t.nodes.take(1)[0]
	lo, hi := r*m.Cols, (r+1)*m.Cols
	v.V, v.G = m.W[lo:hi:hi], m.G[lo:hi:hi]
	return v
}

// Vecs returns a slice of n nil node pointers from the tape's storage,
// for sequences of nodes that live as long as the tape's graph.
func (t *Tape) Vecs(n int) []*Vec { return t.ptrs.take(n) }

// vecs copies vs into tape storage, so an op record never keeps a
// caller's (possibly variadic) slice.
func (t *Tape) vecs(vs []*Vec) []*Vec {
	out := t.ptrs.take(len(vs))
	copy(out, vs)
	return out
}

// opKind selects an op record's backward rule.
type opKind uint8

const (
	opAdd opKind = iota
	opSub
	opMul
	opScale
	opTanh
	opSigmoid
	opConcat
	opDot
	opMatVec
	opSoftmax
	opSum
	opWeightedSum
	opSparseLinear
	opMaxPool
	opNoiseAwareCE
	opLSTMStep
)

// op is one recorded operation. out is the result node; a and b are
// the operands (a only for unary ops); vs lists the operands of
// variadic ops; m is the parameter matrix of MatVec, SparseLinear and
// nothing else; idx holds SparseLinear's columns or MaxPool's argmax;
// s is Scale's factor or NoiseAwareCE's target. An LSTM step records
// its cell in lstm, x and hPrev in a and b, cPrev and c in vs, h in
// out, and its gate activations in acts.
type op struct {
	kind      opKind
	a, b, out *Vec
	vs        []*Vec
	m         *Mat
	idx       []int
	s         float64
	lstm      *LSTM
	acts      []float64
}

// record appends an op unless the tape is forward-only.
func (t *Tape) record(o op) {
	if !t.infer {
		t.ops = append(t.ops, o)
	}
}

// Backward seeds the output node with gradient 1 (for every component)
// and propagates through the tape in reverse.
func (t *Tape) Backward(out *Vec) {
	if t.infer {
		panic("neural: Backward on an inference tape")
	}
	for i := range out.G {
		out.G[i] = 1
	}
	for i := len(t.ops) - 1; i >= 0; i-- {
		t.backward(&t.ops[i])
	}
}

// backward applies one op's backward rule. Each rule accumulates into
// its operands' gradients in exactly the element order of the forward
// definition it mirrors.
func (t *Tape) backward(o *op) {
	out, a, b := o.out, o.a, o.b
	switch o.kind {
	case opAdd:
		for i := range out.G {
			a.G[i] += out.G[i]
			b.G[i] += out.G[i]
		}
	case opSub:
		for i := range out.G {
			a.G[i] += out.G[i]
			b.G[i] -= out.G[i]
		}
	case opMul:
		for i := range out.G {
			a.G[i] += out.G[i] * b.V[i]
			b.G[i] += out.G[i] * a.V[i]
		}
	case opScale:
		for i := range out.G {
			a.G[i] += o.s * out.G[i]
		}
	case opTanh:
		for i := range out.G {
			a.G[i] += out.G[i] * (1 - out.V[i]*out.V[i])
		}
	case opSigmoid:
		for i := range out.G {
			a.G[i] += out.G[i] * out.V[i] * (1 - out.V[i])
		}
	case opConcat:
		off := 0
		for _, v := range o.vs {
			for i := range v.G {
				v.G[i] += out.G[off+i]
			}
			off += v.Len()
		}
	case opDot:
		g := out.G[0]
		for i := range a.V {
			a.G[i] += g * b.V[i]
			b.G[i] += g * a.V[i]
		}
	case opMatVec:
		matVecBackward(o.m, out.G, a.V, a.G)
	case opSoftmax:
		// dL/da_i = y_i * (g_i - Σ_j g_j y_j)
		dot := 0.0
		for j := range out.V {
			dot += out.G[j] * out.V[j]
		}
		for i := range a.G {
			a.G[i] += out.V[i] * (out.G[i] - dot)
		}
	case opSum:
		for _, v := range o.vs {
			for i := range v.G {
				v.G[i] += out.G[i]
			}
		}
	case opWeightedSum:
		w := a
		for j, v := range o.vs {
			for i := range out.G {
				v.G[i] += out.G[i] * w.V[j]
				w.G[j] += out.G[i] * v.V[i]
			}
		}
	case opSparseLinear:
		m := o.m
		for _, c := range o.idx {
			if c < 0 || c >= m.Cols {
				continue
			}
			for r := 0; r < m.Rows; r++ {
				m.G[r*m.Cols+c] += out.G[r]
			}
		}
	case opMaxPool:
		for i, k := range o.idx {
			o.vs[k].G[i] += out.G[i]
		}
	case opNoiseAwareCE:
		const eps = 1e-12
		q, p := a, o.s
		g := out.G[0]
		q.G[1] += g * (-p / (q.V[1] + eps))
		q.G[0] += g * (-(1 - p) / (q.V[0] + eps))
	case opLSTMStep:
		o.lstm.stepBackward(t, o)
	default:
		panic("neural: unknown op")
	}
}

// Add returns a + b (element-wise; dimensions must match).
func (t *Tape) Add(a, b *Vec) *Vec {
	mustSameLen(a, b)
	out := t.node(a.Len())
	for i := range out.V {
		out.V[i] = a.V[i] + b.V[i]
	}
	t.record(op{kind: opAdd, a: a, b: b, out: out})
	return out
}

// Sub returns a - b.
func (t *Tape) Sub(a, b *Vec) *Vec {
	mustSameLen(a, b)
	out := t.node(a.Len())
	for i := range out.V {
		out.V[i] = a.V[i] - b.V[i]
	}
	t.record(op{kind: opSub, a: a, b: b, out: out})
	return out
}

// Mul returns the Hadamard (element-wise) product a ∘ b.
func (t *Tape) Mul(a, b *Vec) *Vec {
	mustSameLen(a, b)
	out := t.node(a.Len())
	for i := range out.V {
		out.V[i] = a.V[i] * b.V[i]
	}
	t.record(op{kind: opMul, a: a, b: b, out: out})
	return out
}

// Scale returns s * a for a constant scalar s.
func (t *Tape) Scale(a *Vec, s float64) *Vec {
	out := t.node(a.Len())
	for i := range out.V {
		out.V[i] = s * a.V[i]
	}
	t.record(op{kind: opScale, a: a, out: out, s: s})
	return out
}

// Tanh applies tanh element-wise.
func (t *Tape) Tanh(a *Vec) *Vec {
	out := t.node(a.Len())
	for i := range out.V {
		out.V[i] = math.Tanh(a.V[i])
	}
	t.record(op{kind: opTanh, a: a, out: out})
	return out
}

// Sigmoid applies the logistic function element-wise.
func (t *Tape) Sigmoid(a *Vec) *Vec {
	out := t.node(a.Len())
	for i := range out.V {
		out.V[i] = 1 / (1 + math.Exp(-a.V[i]))
	}
	t.record(op{kind: opSigmoid, a: a, out: out})
	return out
}

// Concat concatenates vectors into one node.
func (t *Tape) Concat(vs ...*Vec) *Vec {
	n := 0
	for _, v := range vs {
		n += v.Len()
	}
	out := t.node(n)
	off := 0
	for _, v := range vs {
		copy(out.V[off:], v.V)
		off += v.Len()
	}
	if !t.infer {
		t.record(op{kind: opConcat, vs: t.vecs(vs), out: out})
	}
	return out
}

// Dot returns the scalar product <a, b> as a 1-vector.
func (t *Tape) Dot(a, b *Vec) *Vec {
	mustSameLen(a, b)
	out := t.node(1)
	out.V[0] = dot(a.V, b.V)
	t.record(op{kind: opDot, a: a, b: b, out: out})
	return out
}

// MatVec returns M·x where M is a parameter matrix (rows×cols) and x
// has dimension cols.
func (t *Tape) MatVec(m *Mat, x *Vec) *Vec {
	if m.Cols != x.Len() {
		panic("neural: MatVec dimension mismatch")
	}
	out := t.node(m.Rows)
	matVec(m.W, x.V, out.V)
	t.record(op{kind: opMatVec, a: x, m: m, out: out})
	return out
}

// Softmax returns the softmax of a (numerically stabilized).
func (t *Tape) Softmax(a *Vec) *Vec {
	out := t.node(a.Len())
	max := a.V[0]
	for _, v := range a.V[1:] {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for i, v := range a.V {
		out.V[i] = math.Exp(v - max)
		sum += out.V[i]
	}
	for i := range out.V {
		out.V[i] /= sum
	}
	t.record(op{kind: opSoftmax, a: a, out: out})
	return out
}

// Sum returns the element-wise sum of several equal-length vectors.
func (t *Tape) Sum(vs ...*Vec) *Vec {
	if len(vs) == 0 {
		panic("neural: Sum of nothing")
	}
	out := t.node(vs[0].Len())
	for _, v := range vs {
		mustSameLen(vs[0], v)
		for i := range out.V {
			out.V[i] += v.V[i]
		}
	}
	if !t.infer {
		t.record(op{kind: opSum, vs: t.vecs(vs), out: out})
	}
	return out
}

// WeightedSum returns Σ_j w_j · vs_j where the weights come from a
// vector node of dimension len(vs) — the attention aggregation.
func (t *Tape) WeightedSum(w *Vec, vs []*Vec) *Vec {
	if w.Len() != len(vs) {
		panic("neural: WeightedSum weight/vector count mismatch")
	}
	if len(vs) == 0 {
		panic("neural: WeightedSum of nothing")
	}
	out := t.node(vs[0].Len())
	for j, v := range vs {
		mustSameLen(vs[0], v)
		for i := range out.V {
			out.V[i] += w.V[j] * v.V[i]
		}
	}
	if !t.infer {
		t.record(op{kind: opWeightedSum, a: w, vs: t.vecs(vs), out: out})
	}
	return out
}

// SparseLinear computes out[r] = Σ_{c ∈ cols} M[r,c] — a linear layer
// applied to a sparse binary feature vector given by its active column
// indices. This is how the extended feature library enters the last
// layer of Fonduer's network (Section 4.2): the feature-library logits
// are added to the textual logits before the softmax. Columns out of
// range are ignored (frozen feature index returning unseen features).
// The tape keeps cols until Reset; callers must not modify it.
func (t *Tape) SparseLinear(m *Mat, cols []int) *Vec {
	out := t.node(m.Rows)
	for _, c := range cols {
		if c < 0 || c >= m.Cols {
			continue
		}
		for r := 0; r < m.Rows; r++ {
			out.V[r] += m.W[r*m.Cols+c]
		}
	}
	t.record(op{kind: opSparseLinear, m: m, idx: cols, out: out})
	return out
}

// dot is Σ_i a[i]·b[i], summed left to right from +0.
func dot(a, b []float64) float64 {
	b = b[:len(a)]
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// dot4 returns the dot products of four equal-length rows with x, each
// summed left to right from +0 (exactly dot's rounding), interleaved
// so the four add chains overlap.
func dot4(w0, w1, w2, w3, x []float64) (s0, s1, s2, s3 float64) {
	n := len(x)
	w0, w1, w2, w3 = w0[:n], w1[:n], w2[:n], w3[:n]
	for c, xv := range x {
		s0 += w0[c] * xv
		s1 += w1[c] * xv
		s2 += w2[c] * xv
		s3 += w3[c] * xv
	}
	return
}

// matVec writes W·x into out, where W is len(out)×len(x) row-major,
// four rows at a time through dot4.
func matVec(w, x, out []float64) {
	n := len(x)
	r := 0
	for ; r+4 <= len(out); r += 4 {
		b := r * n
		out[r], out[r+1], out[r+2], out[r+3] = dot4(w[b:b+n], w[b+n:b+2*n], w[b+2*n:b+3*n], w[b+3*n:b+4*n], x)
	}
	for ; r < len(out); r++ {
		b := r * n
		out[r] = dot(w[b:b+n], x)
	}
}

// matVecBackward accumulates the gradients of out = M·x given dL/dout
// in g: M.G += g xᵀ and xG += Mᵀ g, skipping rows whose output
// gradient is zero. Rows with a nonzero gradient go four at a time:
// each xG element takes the four rows' terms in ascending row order,
// held in a register between them, which is exactly the rounding of
// adding one row after another.
func matVecBackward(m *Mat, g, x, xG []float64) {
	cols := m.Cols
	x = x[:cols]
	xG = xG[:cols]
	var rows [4]int
	n := 0
	for r, gr := range g[:m.Rows] {
		if gr == 0 {
			continue
		}
		rows[n] = r
		if n++; n == 4 {
			matVecBackward4(m, g, rows, x, xG)
			n = 0
		}
	}
	for _, r := range rows[:n] {
		gr := g[r]
		base := r * cols
		w := m.W[base : base+cols : base+cols]
		wg := m.G[base : base+cols : base+cols]
		for c, wv := range w {
			wg[c] += gr * x[c]
			xG[c] += gr * wv
		}
	}
}

// matVecBackward4 is matVecBackward's step for four rows r0<r1<r2<r3.
func matVecBackward4(m *Mat, g []float64, rows [4]int, x, xG []float64) {
	n := len(x)
	xG = xG[:n]
	g0, g1, g2, g3 := g[rows[0]], g[rows[1]], g[rows[2]], g[rows[3]]
	b0, b1, b2, b3 := rows[0]*n, rows[1]*n, rows[2]*n, rows[3]*n
	w0, w1, w2, w3 := m.W[b0:b0+n], m.W[b1:b1+n], m.W[b2:b2+n], m.W[b3:b3+n]
	d0, d1, d2, d3 := m.G[b0:b0+n], m.G[b1:b1+n], m.G[b2:b2+n], m.G[b3:b3+n]
	w0, w1, w2, w3 = w0[:n], w1[:n], w2[:n], w3[:n]
	d0, d1, d2, d3 = d0[:n], d1[:n], d2[:n], d3[:n]
	for c, xv := range x {
		d0[c] += g0 * xv
		d1[c] += g1 * xv
		d2[c] += g2 * xv
		d3[c] += g3 * xv
		s := xG[c]
		s += g0 * w0[c]
		s += g1 * w1[c]
		s += g2 * w2[c]
		s += g3 * w3[c]
		xG[c] = s
	}
}

func mustSameLen(a, b *Vec) {
	if a.Len() != b.Len() {
		panic("neural: dimension mismatch")
	}
}
