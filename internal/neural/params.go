package neural

import (
	"math"
	"math/rand"
)

// Mat is a trainable parameter matrix (or vector when Cols==1 is not
// required; biases use Rows=n, Cols=1 semantics via Param helpers).
// W holds row-major weights; G accumulates gradients.
type Mat struct {
	Rows, Cols int
	W, G       []float64
}

// NewMat allocates a zeroed rows×cols parameter matrix.
func NewMat(rows, cols int) *Mat {
	return &Mat{Rows: rows, Cols: cols, W: make([]float64, rows*cols), G: make([]float64, rows*cols)}
}

// NewMatXavier allocates a matrix initialized with Xavier/Glorot
// uniform weights drawn from the provided RNG (deterministic given the
// seed).
func NewMatXavier(rows, cols int, rng *rand.Rand) *Mat {
	m := NewMat(rows, cols)
	limit := math.Sqrt(6.0 / float64(rows+cols))
	for i := range m.W {
		m.W[i] = (2*rng.Float64() - 1) * limit
	}
	return m
}

// ZeroGrad clears the gradient accumulator.
func (m *Mat) ZeroGrad() {
	for i := range m.G {
		m.G[i] = 0
	}
}

// Shadow returns a matrix sharing m's weights but carrying a private,
// zeroed gradient buffer. A forward/backward pass through a shadow
// reads the live weights and accumulates gradients without touching
// the original — the per-worker state of data-parallel training.
// Weights must not be updated while shadows are in use.
func (m *Mat) Shadow() *Mat {
	return &Mat{Rows: m.Rows, Cols: m.Cols, W: m.W, G: make([]float64, len(m.G))}
}

// Params is the set of trainable matrices of a model.
type Params []*Mat

// ZeroGrad clears all gradients.
func (ps Params) ZeroGrad() {
	for _, p := range ps {
		p.ZeroGrad()
	}
}

// Count returns the total number of scalar parameters.
func (ps Params) Count() int {
	n := 0
	for _, p := range ps {
		n += len(p.W)
	}
	return n
}

// AccumGrad adds src's gradients into ps's, position by position.
// Both parameter lists must come from the same model (same shapes in
// the same order); the reduction step of minibatch training calls this
// once per example slot, in fixed example-index order, so the float
// summation order — and therefore the resulting weights — never
// depends on how slots were assigned to workers.
func (ps Params) AccumGrad(src Params) {
	if len(ps) != len(src) {
		panic("neural: AccumGrad parameter count mismatch")
	}
	for k, p := range ps {
		s := src[k]
		if len(p.G) != len(s.G) {
			panic("neural: AccumGrad shape mismatch")
		}
		for i := range p.G {
			p.G[i] += s.G[i]
		}
	}
}

// ScaleGrad multiplies every gradient by s (the 1/batch averaging of
// minibatch training).
func (ps Params) ScaleGrad(s float64) {
	for _, p := range ps {
		for i := range p.G {
			p.G[i] *= s
		}
	}
}

// ClipGrad scales gradients so their global L2 norm is at most c.
func (ps Params) ClipGrad(c float64) {
	if c <= 0 {
		return
	}
	sum := 0.0
	for _, p := range ps {
		for _, g := range p.G {
			sum += g * g
		}
	}
	norm := math.Sqrt(sum)
	if norm <= c {
		return
	}
	scale := c / norm
	for _, p := range ps {
		for i := range p.G {
			p.G[i] *= scale
		}
	}
}

// Optimizer updates parameters from accumulated gradients.
type Optimizer interface {
	// Step applies one update and leaves gradients untouched (callers
	// ZeroGrad between steps).
	Step(Params)
}

// SGD is plain stochastic gradient descent with optional weight decay.
type SGD struct {
	LR          float64
	WeightDecay float64
}

// Step implements Optimizer.
func (o SGD) Step(ps Params) {
	for _, p := range ps {
		for i := range p.W {
			g := p.G[i] + o.WeightDecay*p.W[i]
			p.W[i] -= o.LR * g
		}
	}
}

// Adam is the Adam optimizer (Kingma & Ba) with bias correction.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	WeightDecay           float64

	t int
	// moments holds each parameter's first and second moments by the
	// parameter's position in the stepped list, so every Step must pass
	// the same parameters in the same order.
	moments []adamMoments
}

type adamMoments struct {
	p    *Mat
	m, v []float64
}

// NewAdam returns Adam with the conventional defaults and the given
// learning rate.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step implements Optimizer. Every element goes through the textbook
// update with the same operations in the same order; only loop
// invariants are hoisted.
func (o *Adam) Step(ps Params) {
	o.t++
	b1t := 1 - math.Pow(o.Beta1, float64(o.t))
	b2t := 1 - math.Pow(o.Beta2, float64(o.t))
	lr, eps, wd := o.LR, o.Eps, o.WeightDecay
	beta1, beta2 := o.Beta1, o.Beta2
	c1, c2 := 1-beta1, 1-beta2
	for k, p := range ps {
		if k == len(o.moments) {
			o.moments = append(o.moments, adamMoments{p: p, m: make([]float64, len(p.W)), v: make([]float64, len(p.W))})
		}
		st := &o.moments[k]
		if st.p != p {
			panic("neural: Adam.Step parameter list differs from the first step's")
		}
		w := p.W
		n := len(w)
		g, m, v := p.G[:n], st.m[:n], st.v[:n]
		for i, wi := range w {
			gi := g[i] + wd*wi
			m[i] = beta1*m[i] + c1*gi
			v[i] = beta2*v[i] + c2*gi*gi
			mh := m[i] / b1t
			vh := v[i] / b2t
			w[i] = wi - lr*mh/(math.Sqrt(vh)+eps)
		}
	}
}
