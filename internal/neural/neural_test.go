package neural

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// numericGradCheck compares analytic gradients of loss() with central
// finite differences for every parameter scalar.
func numericGradCheck(t *testing.T, name string, params Params, loss func() float64, tol float64) {
	t.Helper()
	params.ZeroGrad()
	base := loss()
	_ = base
	// Analytic pass already performed inside loss (caller contract:
	// loss() builds a tape, runs Backward, and returns the loss while
	// accumulating into params.G). To keep gradients from doubling we
	// zero first, call once, snapshot.
	params.ZeroGrad()
	loss()
	analytic := map[*Mat][]float64{}
	for _, p := range params {
		g := make([]float64, len(p.G))
		copy(g, p.G)
		analytic[p] = g
	}
	const h = 1e-5
	for pi, p := range params {
		for i := range p.W {
			orig := p.W[i]
			p.W[i] = orig + h
			params.ZeroGrad()
			up := loss()
			p.W[i] = orig - h
			params.ZeroGrad()
			down := loss()
			p.W[i] = orig
			numeric := (up - down) / (2 * h)
			got := analytic[p][i]
			diff := math.Abs(numeric - got)
			scale := math.Max(1, math.Max(math.Abs(numeric), math.Abs(got)))
			if diff/scale > tol {
				t.Fatalf("%s: param %d[%d]: analytic %v vs numeric %v", name, pi, i, got, numeric)
			}
		}
	}
}

func TestGradientsLinearSoftmax(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lin := NewLinear(3, 2, rng)
	x := []float64{0.5, -1.2, 2.0}
	loss := func() float64 {
		tape := NewTape()
		l, node := NoiseAwareCE(tape, lin.Apply(tape, FromSlice(x)), 0.7)
		tape.Backward(node)
		return l
	}
	numericGradCheck(t, "linear+softmaxCE", lin.Params(), loss, 1e-5)
}

func TestGradientsLSTM(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	lstm := NewLSTM(2, 3, rng)
	head := NewLinear(3, 2, rng)
	xs := [][]float64{{0.3, -0.4}, {1.1, 0.2}, {-0.6, 0.9}}
	params := append(lstm.Params(), head.Params()...)
	loss := func() float64 {
		tape := NewTape()
		ins := make([]*Vec, len(xs))
		for i, x := range xs {
			ins[i] = FromSlice(x)
		}
		hs := lstm.Run(tape, ins)
		l, node := NoiseAwareCE(tape, head.Apply(tape, hs[len(hs)-1]), 0.2)
		tape.Backward(node)
		return l
	}
	numericGradCheck(t, "lstm", params, loss, 1e-4)
}

func TestGradientsBiLSTMAttention(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bi := NewBiLSTM(2, 2, rng)
	att := NewAttention(bi.OutDim(), 3, rng)
	head := NewLinear(att.OutDim(), 2, rng)
	xs := [][]float64{{0.3, -0.4}, {1.1, 0.2}}
	params := append(append(bi.Params(), att.Params()...), head.Params()...)
	loss := func() float64 {
		tape := NewTape()
		ins := make([]*Vec, len(xs))
		for i, x := range xs {
			ins[i] = FromSlice(x)
		}
		hs := bi.Run(tape, ins)
		agg, _ := att.Apply(tape, hs)
		l, node := NoiseAwareCE(tape, head.Apply(tape, agg), 0.9)
		tape.Backward(node)
		return l
	}
	numericGradCheck(t, "bilstm+attention", params, loss, 1e-4)
}

func TestGradientsEmbedding(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	emb := NewEmbedding(5, 3, rng, nil)
	head := NewLinear(3, 2, rng)
	params := append(emb.Params(), head.Params()...)
	loss := func() float64 {
		tape := NewTape()
		// Same id twice: gradient accumulates into one row.
		s := tape.Sum(emb.LookupOn(tape, 2), emb.LookupOn(tape, 2), emb.LookupOn(tape, 4))
		l, node := NoiseAwareCE(tape, head.Apply(tape, s), 0.5)
		tape.Backward(node)
		return l
	}
	numericGradCheck(t, "embedding", params, loss, 1e-5)
}

func TestGradientsMaxPool(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	lin := NewLinear(2, 2, rng)
	vals := [][]float64{{1, -2}, {0.5, 3}, {-1, 0}}
	loss := func() float64 {
		tape := NewTape()
		vs := make([]*Vec, len(vals))
		for i, v := range vals {
			vs[i] = FromSlice(v)
		}
		// Project each then maxpool (so parameters affect argmax path).
		ps := make([]*Vec, len(vs))
		for i, v := range vs {
			ps[i] = tape.Tanh(lin.Apply(tape, v))
		}
		pooled := MaxPool(tape, ps)
		l, node := NoiseAwareCE(tape, pooled, 0.4)
		tape.Backward(node)
		return l
	}
	numericGradCheck(t, "maxpool", lin.Params(), loss, 1e-4)
}

func TestOpsForward(t *testing.T) {
	tape := NewTape()
	a := FromSlice([]float64{1, 2})
	b := FromSlice([]float64{3, 4})
	if got := tape.Add(a, b).V; got[0] != 4 || got[1] != 6 {
		t.Fatalf("Add = %v", got)
	}
	if got := tape.Sub(a, b).V; got[0] != -2 || got[1] != -2 {
		t.Fatalf("Sub = %v", got)
	}
	if got := tape.Mul(a, b).V; got[0] != 3 || got[1] != 8 {
		t.Fatalf("Mul = %v", got)
	}
	if got := tape.Scale(a, 2).V; got[0] != 2 || got[1] != 4 {
		t.Fatalf("Scale = %v", got)
	}
	if got := tape.Dot(a, b).V[0]; got != 11 {
		t.Fatalf("Dot = %v", got)
	}
	if got := tape.Concat(a, b).V; len(got) != 4 || got[2] != 3 {
		t.Fatalf("Concat = %v", got)
	}
	sm := tape.Softmax(FromSlice([]float64{0, 0})).V
	if math.Abs(sm[0]-0.5) > 1e-12 {
		t.Fatalf("Softmax = %v", sm)
	}
	// Softmax is invariant to large shifts (stability).
	sm2 := tape.Softmax(FromSlice([]float64{1000, 1000})).V
	if math.Abs(sm2[0]-0.5) > 1e-12 {
		t.Fatalf("stabilized Softmax = %v", sm2)
	}
}

func TestDimensionPanics(t *testing.T) {
	tape := NewTape()
	a, b := NewVec(2), NewVec(3)
	lstm := NewLSTM(1, 2, rand.New(rand.NewSource(1)))
	for name, fn := range map[string]func(){
		"Add":    func() { tape.Add(a, b) },
		"Mul":    func() { tape.Mul(a, b) },
		"Dot":    func() { tape.Dot(a, b) },
		"MatVec": func() { tape.MatVec(NewMat(2, 2), b) },
		"WSum":   func() { tape.WeightedSum(a, []*Vec{NewVec(1)}) },
		"WSum0":  func() { tape.WeightedSum(NewVec(0), nil) },
		"LSTMx":  func() { lstm.Step(tape, NewVec(3), NewVec(2), NewVec(2)) },
		"LSTMh":  func() { lstm.Step(tape, NewVec(1), NewVec(3), NewVec(2)) },
		"LSTMc":  func() { lstm.Step(tape, NewVec(1), NewVec(2), NewVec(1)) },
		"Sum":    func() { tape.Sum() },
		"CE":     func() { NoiseAwareCE(tape, NewVec(3), 0.5) },
		"Pool":   func() { MaxPool(tape, nil) },
		"Row":    func() { tape.row(NewMat(2, 2), 5) },
		"Adam": func() {
			a, b := NewMat(1, 1), NewMat(1, 1)
			o := NewAdam(0.1)
			o.Step(Params{a, b})
			o.Step(Params{b, a})
		},
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%s must panic on dimension mismatch", name)
				} else if msg, _ := r.(string); !strings.HasPrefix(msg, "neural: ") {
					t.Errorf("%s panicked with %v, want a neural: message", name, r)
				}
			}()
			fn()
		}()
	}
}

func TestOptimizersReduceLoss(t *testing.T) {
	for name, mk := range map[string]func() Optimizer{
		"sgd":  func() Optimizer { return SGD{LR: 0.1} },
		"adam": func() Optimizer { return NewAdam(0.05) },
	} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(6))
			lin := NewLinear(2, 2, rng)
			opt := mk()
			x := []float64{1, -1}
			lossOnce := func() float64 {
				tape := NewTape()
				l, node := NoiseAwareCE(tape, lin.Apply(tape, FromSlice(x)), 1.0)
				tape.Backward(node)
				return l
			}
			lin.Params().ZeroGrad()
			first := lossOnce()
			opt.Step(lin.Params())
			for i := 0; i < 50; i++ {
				lin.Params().ZeroGrad()
				lossOnce()
				opt.Step(lin.Params())
			}
			lin.Params().ZeroGrad()
			last := lossOnce()
			if last >= first {
				t.Fatalf("loss did not decrease: %v -> %v", first, last)
			}
			if last > 0.1 {
				t.Fatalf("loss still high: %v", last)
			}
		})
	}
}

func TestClipGrad(t *testing.T) {
	p := NewMat(1, 2)
	p.G[0], p.G[1] = 3, 4 // norm 5
	ps := Params{p}
	ps.ClipGrad(1)
	norm := math.Hypot(p.G[0], p.G[1])
	if math.Abs(norm-1) > 1e-12 {
		t.Fatalf("clipped norm = %v", norm)
	}
	// No-op when under the limit.
	ps.ClipGrad(10)
	if math.Abs(math.Hypot(p.G[0], p.G[1])-1) > 1e-12 {
		t.Fatal("clip should be stable under limit")
	}
	ps.ClipGrad(0) // disabled
}

func TestParamsCount(t *testing.T) {
	ps := Params{NewMat(2, 3), NewMat(1, 4)}
	if ps.Count() != 10 {
		t.Fatalf("Count = %d", ps.Count())
	}
}

func TestSoftmaxProbs(t *testing.T) {
	p := SoftmaxProbs([]float64{0, math.Log(3)})
	if math.Abs(p[1]-0.75) > 1e-12 {
		t.Fatalf("SoftmaxProbs = %v", p)
	}
}

func TestEmbeddingInitAndOOV(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	emb := NewEmbedding(3, 2, rng, func(id int) []float64 {
		return []float64{float64(id), float64(id)}
	})
	tape := NewTape()
	if emb.LookupOn(tape, 2).V[0] != 2 {
		t.Fatal("init function ignored")
	}
	// Out-of-range ids fall back to row 0.
	if emb.LookupOn(tape, -1).V[0] != 0 || emb.LookupOn(tape, 99).V[0] != 0 {
		t.Fatal("OOV lookup must use row 0")
	}
}

func TestBiLSTMOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	bi := NewBiLSTM(2, 3, rng)
	tape := NewTape()
	xs := []*Vec{FromSlice([]float64{1, 0}), FromSlice([]float64{0, 1})}
	hs := bi.Run(tape, xs)
	if len(hs) != 2 || hs[0].Len() != 6 {
		t.Fatalf("bilstm output shape: %d x %d", len(hs), hs[0].Len())
	}
	if bi.OutDim() != 6 {
		t.Fatalf("OutDim = %d", bi.OutDim())
	}
}

func TestAttentionWeightsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	att := NewAttention(4, 3, rng)
	tape := NewTape()
	hs := []*Vec{FromSlice([]float64{1, 0, 0, 0}), FromSlice([]float64{0, 1, 0, 0}), FromSlice([]float64{0, 0, 1, 0})}
	out, alpha := att.Apply(tape, hs)
	if out.Len() != 3 {
		t.Fatalf("attention out dim = %d", out.Len())
	}
	sum := 0.0
	for _, a := range alpha.V {
		sum += a
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("attention weights sum = %v", sum)
	}
}

func TestGradientsSparseLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	w := NewMatXavier(2, 6, rng)
	cols := []int{0, 3, 3, 5, -1, 99} // duplicates accumulate; invalid ignored
	loss := func() float64 {
		tape := NewTape()
		l, node := NoiseAwareCE(tape, tape.SparseLinear(w, cols), 0.8)
		tape.Backward(node)
		return l
	}
	numericGradCheck(t, "sparselinear", Params{w}, loss, 1e-6)
}

func TestSparseLinearForward(t *testing.T) {
	w := NewMat(2, 3)
	for i := range w.W {
		w.W[i] = float64(i) // rows: [0 1 2], [3 4 5]
	}
	tape := NewTape()
	out := tape.SparseLinear(w, []int{0, 2})
	if out.V[0] != 2 || out.V[1] != 8 {
		t.Fatalf("SparseLinear = %v", out.V)
	}
	empty := tape.SparseLinear(w, nil)
	if empty.V[0] != 0 || empty.V[1] != 0 {
		t.Fatalf("empty SparseLinear = %v", empty.V)
	}
}

// shadowLoss runs one forward/backward of a tiny linear model through
// the given layer instance and returns the loss; gradients accumulate
// into whatever Mats the instance holds.
func shadowLoss(t *Tape, lin *Linear, x []float64, target float64) float64 {
	l, node := NoiseAwareCE(t, lin.Apply(t, FromSlice(x)), target)
	t.Backward(node)
	return l
}

func TestShadowSharesWeightsPrivateGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	lin := NewLinear(3, 2, rng)
	sh := lin.Shadow()
	if &sh.W.W[0] != &lin.W.W[0] || &sh.B.W[0] != &lin.B.W[0] {
		t.Fatal("shadow must share weight storage")
	}
	if &sh.W.G[0] == &lin.W.G[0] {
		t.Fatal("shadow must have a private gradient buffer")
	}
	x := []float64{0.4, -0.9, 1.2}

	// Gradients through the shadow land only in the shadow.
	lin.Params().ZeroGrad()
	shadowLoss(NewTape(), sh, x, 0.7)
	for _, g := range lin.W.G {
		if g != 0 {
			t.Fatal("master gradients must stay untouched by a shadow pass")
		}
	}

	// And they are bitwise the gradients the master pass produces.
	shadowLoss(NewTape(), lin, x, 0.7)
	for i := range lin.W.G {
		if lin.W.G[i] != sh.W.G[i] {
			t.Fatalf("grad[%d]: master %v shadow %v", i, lin.W.G[i], sh.W.G[i])
		}
	}
}

func TestAccumGradFixedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	lin := NewLinear(2, 2, rng)
	master := lin.Params()
	exs := [][]float64{{0.1, 0.9}, {-1.2, 0.3}, {0.7, 0.7}}

	// Reference: sequential accumulation into the master, example order.
	master.ZeroGrad()
	for _, x := range exs {
		shadowLoss(NewTape(), lin, x, 0.5)
	}
	want := append([]float64(nil), lin.W.G...)

	// Shadows filled in any order, reduced in example-index order.
	shadows := make([]*Linear, len(exs))
	for i := range shadows {
		shadows[i] = lin.Shadow()
	}
	for _, i := range []int{2, 0, 1} { // fill order must not matter
		shadowLoss(NewTape(), shadows[i], exs[i], 0.5)
	}
	master.ZeroGrad()
	for i := range shadows {
		master.AccumGrad(shadows[i].Params())
	}
	for i := range want {
		if lin.W.G[i] != want[i] {
			t.Fatalf("grad[%d]: accum %v sequential %v", i, lin.W.G[i], want[i])
		}
	}
}

func TestScaleGrad(t *testing.T) {
	m := NewMat(1, 3)
	m.G[0], m.G[1], m.G[2] = 2, -4, 8
	Params{m}.ScaleGrad(0.5)
	if m.G[0] != 1 || m.G[1] != -2 || m.G[2] != 4 {
		t.Fatalf("ScaleGrad = %v", m.G)
	}
}

func TestTapeResetReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lin := NewLinear(3, 2, rng)
	x := []float64{0.5, -0.2, 0.8}

	lin.Params().ZeroGrad()
	shadowLoss(NewTape(), lin, x, 0.3)
	want := append([]float64(nil), lin.W.G...)

	tape := NewTape()
	shadowLoss(tape, lin, []float64{2, 2, 2}, 0.9) // pollute, then reuse
	tape.Reset()
	lin.Params().ZeroGrad()
	shadowLoss(tape, lin, x, 0.3)
	for i := range want {
		if lin.W.G[i] != want[i] {
			t.Fatalf("reused tape grad[%d]: %v want %v", i, lin.W.G[i], want[i])
		}
	}
}

// bilstmAttentionGrads runs the model package's text encoder — a
// Bi-LSTM over embedding rows, attention, a linear head and the
// noise-aware loss — for one token sequence on tape t, and returns a
// copy of every parameter gradient.
func bilstmAttentionGrads(t *Tape, emb *Embedding, bi *BiLSTM, att *Attention, head *Linear, ids []int) [][]float64 {
	params := append(append(append(emb.Params(), bi.Params()...), att.Params()...), head.Params()...)
	params.ZeroGrad()
	xs := t.Vecs(len(ids))
	for i, id := range ids {
		xs[i] = emb.LookupOn(t, id)
	}
	agg, _ := att.Apply(t, bi.Run(t, xs))
	_, node := NoiseAwareCE(t, head.Apply(t, agg), 0.3)
	t.Backward(node)
	out := make([][]float64, len(params))
	for i, p := range params {
		out[i] = append([]float64(nil), p.G...)
	}
	return out
}

// TestTapeResetVaryingLengths reuses one tape over sequences that grow
// and shrink: after every Reset the gradients must equal, bit for bit,
// those computed on a fresh tape, so no recycled value or gradient
// buffer leaks into the next graph.
func TestTapeResetVaryingLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	emb := NewEmbedding(6, 3, rng, nil)
	bi := NewBiLSTM(3, 4, rng)
	att := NewAttention(bi.OutDim(), 3, rng)
	head := NewLinear(att.OutDim(), 2, rng)
	seqs := [][]int{{1, 2, 3, 4, 5}, {2}, {0, 5, 5, 1, 2, 3, 4, 0, 1}, {3, 3}, {4, 1, 0, 2, 5, 3, 1}}
	reused := NewTape()
	for round := 0; round < 2; round++ {
		for k, ids := range seqs {
			want := bilstmAttentionGrads(NewTape(), emb, bi, att, head, ids)
			reused.Reset()
			got := bilstmAttentionGrads(reused, emb, bi, att, head, ids)
			for p := range want {
				for i := range want[p] {
					if math.Float64bits(got[p][i]) != math.Float64bits(want[p][i]) {
						t.Fatalf("round %d seq %d: param %d[%d]: reused %v, fresh %v", round, k, p, i, got[p][i], want[p][i])
					}
				}
			}
		}
	}
}

// TestInferenceTapeMatchesTrainingForward checks that a forward-only
// tape computes the same values as a recording one and refuses
// Backward.
func TestInferenceTapeMatchesTrainingForward(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	bi := NewBiLSTM(2, 3, rng)
	att := NewAttention(bi.OutDim(), 2, rng)
	xs := []*Vec{FromSlice([]float64{0.2, -0.7}), FromSlice([]float64{1.3, 0.1}), FromSlice([]float64{-0.4, 0.9})}
	want, _ := att.Apply(NewTape(), bi.Run(NewTape(), xs))
	inf := NewInferenceTape()
	got, _ := att.Apply(inf, bi.Run(inf, xs))
	for i := range want.V {
		if got.V[i] != want.V[i] {
			t.Fatalf("value %d: inference %v, training %v", i, got.V[i], want.V[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Backward on an inference tape must panic")
		}
	}()
	inf.Backward(got)
}

// BenchmarkLSTMStep times one fused LSTM step, forward and backward, at
// the model's default 16×16 dimensions on a reused tape, warmed by one
// step so even a single iteration measures the steady state.
func BenchmarkLSTMStep(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	l := NewLSTM(16, 16, rng)
	x, h0, c0 := NewVec(16), NewVec(16), NewVec(16)
	for i := range x.V {
		x.V[i], h0.V[i], c0.V[i] = rng.Float64()-0.5, rng.Float64()-0.5, rng.Float64()-0.5
	}
	tape := NewTape()
	h, _ := l.Step(tape, x, h0, c0)
	tape.Backward(h)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tape.Reset()
		h, _ := l.Step(tape, x, h0, c0)
		tape.Backward(h)
	}
}
