package labeling_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/labeling"
)

// referenceFit is the straightforward EM the package shipped first:
// one posterior per row per iteration, each taking math.Log of the
// prior and of every voting LF's accuracy. Fit must match it bit for
// bit.
func referenceFit(m *labeling.Matrix, opts labeling.FitOptions) *labeling.Model {
	if opts.MaxIter <= 0 {
		opts.MaxIter = 50
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-6
	}
	if opts.InitAcc <= 0 {
		opts.InitAcc = 0.7
	}
	m = m.Compact()
	mod := &labeling.Model{Acc: make([]float64, m.NumLFs), Prior: 0.5}
	for j := range mod.Acc {
		mod.Acc[j] = opts.InitAcc
	}
	if m.NumCands == 0 || m.NumLFs == 0 {
		return mod
	}
	mu := make([]float64, m.NumCands)
	prev := make([]float64, m.NumCands)
	for iter := 0; iter < opts.MaxIter; iter++ {
		mod.Iterations = iter + 1
		for i := range mu {
			mu[i] = referencePosterior(mod, m, i)
		}
		if iter > 0 {
			delta := 0.0
			for i := range mu {
				delta += math.Abs(mu[i] - prev[i])
			}
			if delta/float64(len(mu)) < opts.Tol {
				break
			}
		}
		copy(prev, mu)
		agree := make([]float64, m.NumLFs)
		total := make([]float64, m.NumLFs)
		for i := 0; i < m.NumCands; i++ {
			for _, e := range m.RowLabels(i) {
				total[e.Col]++
				if e.Val > 0 {
					agree[e.Col] += mu[i]
				} else {
					agree[e.Col] += 1 - mu[i]
				}
			}
		}
		for j := 0; j < m.NumLFs; j++ {
			if total[j] > 0 {
				mod.Acc[j] = referenceClamp(agree[j]/total[j], 0.55, 0.95)
			}
		}
		if opts.LearnPrior {
			covSum, covN := 0.0, 0
			for i := 0; i < m.NumCands; i++ {
				if len(m.RowLabels(i)) > 0 {
					covSum += mu[i]
					covN++
				}
			}
			if covN > 0 {
				mod.Prior = referenceClamp(covSum/float64(covN), 0.05, 0.95)
			}
		}
	}
	return mod
}

func referenceClamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func referencePosterior(mod *labeling.Model, m *labeling.Matrix, i int) float64 {
	logPos := math.Log(mod.Prior)
	logNeg := math.Log(1 - mod.Prior)
	for _, e := range m.RowLabels(i) {
		a := mod.Acc[e.Col]
		if e.Val > 0 {
			logPos += math.Log(a)
			logNeg += math.Log(1 - a)
		} else {
			logPos += math.Log(1 - a)
			logNeg += math.Log(a)
		}
	}
	mx := math.Max(logPos, logNeg)
	pp := math.Exp(logPos - mx)
	pn := math.Exp(logNeg - mx)
	return pp / (pp + pn)
}

// TestFitMatchesReference compares Fit and Marginals with the
// reference EM on 200 random label matrices of varied shape, density
// and vote balance, with the prior both fixed and learned.
func TestFitMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n, k := 1+rng.Intn(300), 1+rng.Intn(10)
		m := randomMatrix(rng.Int63(), n, k, 0.05+0.9*rng.Float64(), rng.Float64(), rng.Intn(5))
		opts := labeling.FitOptions{LearnPrior: trial%2 == 1}
		got, want := labeling.Fit(m, opts), referenceFit(m, opts)
		if got.Iterations != want.Iterations || math.Float64bits(got.Prior) != math.Float64bits(want.Prior) {
			t.Fatalf("trial %d (%dx%d, %+v): iterations %d prior %v, want %d %v",
				trial, n, k, opts, got.Iterations, got.Prior, want.Iterations, want.Prior)
		}
		for j := range want.Acc {
			if math.Float64bits(got.Acc[j]) != math.Float64bits(want.Acc[j]) {
				t.Fatalf("trial %d: Acc[%d] = %v, want %v", trial, j, got.Acc[j], want.Acc[j])
			}
		}
		gm := got.Marginals(m)
		for i := 0; i < m.NumCands; i++ {
			if w := referencePosterior(want, m.Compact(), i); math.Float64bits(gm[i]) != math.Float64bits(w) {
				t.Fatalf("trial %d: marginal %d = %v, want %v", trial, i, gm[i], w)
			}
		}
	}
}
