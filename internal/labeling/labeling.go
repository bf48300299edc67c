// Package labeling implements Fonduer's supervision layer: data
// programming (Section 3.2, Appendix A). Users write labeling
// functions (LFs) — lightweight functions that label candidates +1
// ("True"), -1 ("False"), or 0 (abstain) using any modality of the
// data model. The package applies LFs to candidates to form a label
// matrix, computes the LF development metrics the paper exposes
// (coverage, overlap, conflict), and denoises the labels with a
// generative model that estimates each LF's accuracy from agreements
// and conflicts, producing per-candidate marginal probabilities for
// noise-aware discriminative training. This is the role Snorkel [32]
// plays in the paper's implementation.
package labeling

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/candidates"
	"repro/internal/features"
	"repro/internal/sparse"
)

// LF is a labeling function. Fn returns +1, -1, or 0 (abstain).
//
// The pipeline applies LFs concurrently across candidates by default
// (core.Options.Workers), so Fn must be safe for concurrent calls —
// in practice, a pure function of its candidate, which every LF in
// this repository is. An Fn that mutates captured state requires
// Workers = 1 (fully sequential application).
type LF struct {
	Name string
	// Modality records which data modality the LF's pattern uses —
	// textual or metadata (structural/tabular/visual) — driving the
	// Figure 8 supervision ablation and the Figure 9 distribution.
	Modality features.Modality
	Fn       func(*candidates.Candidate) int
}

// Matrix is the label matrix Λ ∈ {-1,0,+1}^{k×l}: one row per
// candidate, one column per labeling function. It is backed by a
// sparse representation; Appendix C.2 motivates COO during iterative
// development (fast updates) and LIL in production (fast row queries).
type Matrix struct {
	M        sparse.Matrix
	NumLFs   int
	NumCands int
}

// NewMatrix creates a label matrix backed by the given representation.
func NewMatrix(rep sparse.Matrix, numCands, numLFs int) *Matrix {
	return &Matrix{M: rep, NumCands: numCands, NumLFs: numLFs}
}

// Apply runs every LF over every candidate, writing labels into a new
// COO-backed matrix (the development-mode representation).
func Apply(lfs []LF, cands []*candidates.Candidate) *Matrix {
	m := NewMatrix(sparse.NewCOO(), len(cands), len(lfs))
	for _, c := range cands {
		for j, lf := range lfs {
			ApplyOne(m, c, j, lf)
		}
	}
	return m
}

// ApplyOne applies a single LF to a single candidate, updating the
// matrix — the incremental path used when a user edits one LF during
// iterative development.
func ApplyOne(m *Matrix, c *candidates.Candidate, col int, lf LF) {
	m.M.Set(c.ID, col, float64(clampVote(lf.Fn(c))))
}

// Label returns Λ[i,j] as -1, 0 or +1.
func (m *Matrix) Label(i, j int) int { return int(m.M.Get(i, j)) }

// RowLabels returns the non-abstain (column, label) pairs of row i.
func (m *Matrix) RowLabels(i int) []sparse.Entry { return m.M.Row(i) }

// Compact returns a matrix with the same contents backed by a LIL
// representation — the representation switch the pipeline performs
// when moving from iterative development (COO, fast updates) to the
// row-scan-heavy model-fitting passes (Appendix C.2).
func (m *Matrix) Compact() *Matrix {
	if _, ok := m.M.(*sparse.LIL); ok {
		return m
	}
	return &Matrix{M: sparse.ToLIL(m.M), NumLFs: m.NumLFs, NumCands: m.NumCands}
}

// Metrics are the labeling-function development metrics Fonduer
// reports to users for error analysis (Section 3.3): coverage (the
// fraction of candidates receiving a non-zero label), overlap (labeled
// by two or more LFs), and conflict (receiving disagreeing labels).
type Metrics struct {
	Coverage float64
	Overlap  float64
	Conflict float64
	// PerLF holds each LF's own coverage, overlap and conflict rates.
	PerLF []LFMetrics
}

// LFMetrics are per-LF development metrics.
type LFMetrics struct {
	Coverage float64 // fraction of candidates this LF labels
	Overlap  float64 // labeled by this LF and at least one other
	Conflict float64 // labeled by this LF and contradicted by another
}

// ComputeMetrics summarizes a label matrix.
func ComputeMetrics(m *Matrix) Metrics {
	m = m.Compact()
	var out Metrics
	out.PerLF = make([]LFMetrics, m.NumLFs)
	if m.NumCands == 0 {
		return out
	}
	covered, overlapped, conflicted := 0, 0, 0
	lfCov := make([]int, m.NumLFs)
	lfOver := make([]int, m.NumLFs)
	lfConf := make([]int, m.NumLFs)
	for i := 0; i < m.NumCands; i++ {
		row := m.RowLabels(i)
		if len(row) == 0 {
			continue
		}
		covered++
		pos, neg := 0, 0
		for _, e := range row {
			if e.Val > 0 {
				pos++
			} else if e.Val < 0 {
				neg++
			}
		}
		if len(row) >= 2 {
			overlapped++
		}
		hasConflict := pos > 0 && neg > 0
		if hasConflict {
			conflicted++
		}
		for _, e := range row {
			lfCov[e.Col]++
			if len(row) >= 2 {
				lfOver[e.Col]++
			}
			// This LF conflicts if any other LF disagrees with it.
			if (e.Val > 0 && neg > 0) || (e.Val < 0 && pos > 0) {
				lfConf[e.Col]++
			}
		}
	}
	n := float64(m.NumCands)
	out.Coverage = float64(covered) / n
	out.Overlap = float64(overlapped) / n
	out.Conflict = float64(conflicted) / n
	for j := 0; j < m.NumLFs; j++ {
		out.PerLF[j] = LFMetrics{
			Coverage: float64(lfCov[j]) / n,
			Overlap:  float64(lfOver[j]) / n,
			Conflict: float64(lfConf[j]) / n,
		}
	}
	return out
}

// Model is the fitted generative label model: per-LF accuracies and a
// class prior, estimated without ground truth by reasoning about the
// agreements and conflicts among LFs (Appendix A).
type Model struct {
	// Acc[j] is the probability LF j is correct given it does not
	// abstain.
	Acc []float64
	// Prior is P(y = +1).
	Prior float64
	// Iterations actually run by EM.
	Iterations int
}

// FitOptions configure Fit.
type FitOptions struct {
	// MaxIter bounds EM iterations (default 50).
	MaxIter int
	// Tol stops EM when marginals move less than this (default 1e-6).
	Tol float64
	// InitAcc is the initial LF accuracy (default 0.7).
	InitAcc float64
	// LearnPrior lets EM estimate the class prior from covered rows.
	// Off by default: a learned shared prior is self-reinforcing in
	// skewed domains (a high prior makes accurate negative LFs look
	// inaccurate, which raises the prior further), so the symmetric
	// prior P(y=+1)=0.5 is the robust default.
	LearnPrior bool
}

func (o *FitOptions) defaults() {
	if o.MaxIter <= 0 {
		o.MaxIter = 50
	}
	if o.Tol <= 0 {
		o.Tol = 1e-6
	}
	if o.InitAcc <= 0 {
		o.InitAcc = 0.7
	}
}

// Fit estimates the generative model from a label matrix by
// expectation-maximization over the latent true labels, under the
// standard data-programming assumption that LFs are conditionally
// independent given the true label:
//
//	E-step: μ_i = P(y_i=+1 | Λ_i, acc, prior)
//	M-step: acc_j = expected fraction of LF j's labels that agree
//	        with the latent label; prior = mean μ.
//
// The E-step depends on a row only through its label pattern (the
// sequence of voting columns and their signs), so each distinct
// pattern's posterior is evaluated once per iteration and copied to
// its rows, from logarithms taken once per iteration. Every posterior
// is the same sequence of float operations on the same operands as a
// per-row evaluation, and the M-step and convergence sums still run
// per row in row order, so the fit is bit-identical to the direct EM.
func Fit(m *Matrix, opts FitOptions) *Model {
	opts.defaults()
	m = m.Compact()
	mod := &Model{Acc: make([]float64, m.NumLFs), Prior: 0.5}
	for j := range mod.Acc {
		mod.Acc[j] = opts.InitAcc
	}
	if m.NumCands == 0 || m.NumLFs == 0 {
		return mod
	}
	pats, of := groupPatterns(m)
	post := make([]float64, len(pats))
	var lt logTable
	mu := make([]float64, m.NumCands)
	prev := make([]float64, m.NumCands)
	// Vote counts per LF are exact small integers, the same every
	// iteration.
	total := make([]float64, m.NumLFs)
	for i := 0; i < m.NumCands; i++ {
		for _, e := range m.RowLabels(i) {
			total[e.Col]++
		}
	}
	agree := make([]float64, m.NumLFs)
	for iter := 0; iter < opts.MaxIter; iter++ {
		mod.Iterations = iter + 1
		// E-step.
		lt.fill(mod)
		for p, row := range pats {
			post[p] = lt.posterior(row)
		}
		for i := range mu {
			mu[i] = post[of[i]]
		}
		// Convergence check.
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
		// M-step.
		clear(agree)
		for i := 0; i < m.NumCands; i++ {
			for _, e := range m.RowLabels(i) {
				if e.Val > 0 {
					agree[e.Col] += mu[i]
				} else {
					agree[e.Col] += 1 - mu[i]
				}
			}
		}
		for j := 0; j < m.NumLFs; j++ {
			if total[j] > 0 {
				// Data-programming theory assumes labeling functions
				// are better than random (Appendix A.2's γ > 0); the
				// lower clamp also breaks the label-inversion symmetry
				// EM would otherwise be free to converge to.
				mod.Acc[j] = clamp(agree[j]/total[j], 0.55, 0.95)
			}
		}
		if opts.LearnPrior {
			// Estimate the class prior from covered rows only, so
			// uncovered rows (which receive the prior) cannot
			// reinforce it.
			covSum, covN := 0.0, 0
			for i := 0; i < m.NumCands; i++ {
				if len(m.RowLabels(i)) > 0 {
					covSum += mu[i]
					covN++
				}
			}
			if covN > 0 {
				mod.Prior = clamp(covSum/float64(covN), 0.05, 0.95)
			}
		}
	}
	return mod
}

// groupPatterns returns one representative row per distinct label
// pattern, in order of first appearance, and each row's pattern
// index. Rows share a pattern when they carry the same voting columns
// in the same order with the same signs; the posterior reads nothing
// else from a row.
func groupPatterns(m *Matrix) (pats [][]sparse.Entry, of []int) {
	of = make([]int, m.NumCands)
	ids := map[string]int{}
	var key []byte
	for i := range of {
		row := m.RowLabels(i)
		key = key[:0]
		for _, e := range row {
			col := uint64(e.Col) << 1
			if e.Val > 0 {
				col |= 1
			}
			key = binary.AppendUvarint(key, col)
		}
		id, ok := ids[string(key)]
		if !ok {
			id = len(pats)
			ids[string(key)] = id
			pats = append(pats, row)
		}
		of[i] = id
	}
	return pats, of
}

// logTable caches the logarithms one E-step pass needs: the log prior
// odds' two terms and each LF's log accuracy and log inaccuracy. The
// values are the very expressions a per-entry evaluation would
// compute, so posteriors from the table carry the same bits.
type logTable struct {
	pos, neg     float64   // log(Prior), log(1-Prior)
	right, wrong []float64 // log(Acc[j]), log(1-Acc[j])
}

// fill recomputes the table for the model's current parameters.
func (lt *logTable) fill(mod *Model) {
	lt.pos = math.Log(mod.Prior)
	lt.neg = math.Log(1 - mod.Prior)
	if cap(lt.right) < len(mod.Acc) {
		lt.right = make([]float64, len(mod.Acc))
		lt.wrong = make([]float64, len(mod.Acc))
	}
	lt.right, lt.wrong = lt.right[:len(mod.Acc)], lt.wrong[:len(mod.Acc)]
	for j, a := range mod.Acc {
		lt.right[j] = math.Log(a)
		lt.wrong[j] = math.Log(1 - a)
	}
}

// posterior computes P(y=+1 | row) under the independent-LF model.
func (lt *logTable) posterior(row []sparse.Entry) float64 {
	logPos, logNeg := lt.pos, lt.neg
	for _, e := range row {
		if e.Val > 0 {
			logPos += lt.right[e.Col]
			logNeg += lt.wrong[e.Col]
		} else {
			logPos += lt.wrong[e.Col]
			logNeg += lt.right[e.Col]
		}
	}
	// Stable softmax over two log scores.
	m := math.Max(logPos, logNeg)
	pp := math.Exp(logPos - m)
	pn := math.Exp(logNeg - m)
	return pp / (pp + pn)
}

// Marginals returns P(y=+1 | Λ_i) for every candidate row — the
// probabilistic training labels consumed by the noise-aware
// discriminative model. Rows with no labels get the prior.
func (mod *Model) Marginals(m *Matrix) []float64 {
	m = m.Compact()
	var lt logTable
	lt.fill(mod)
	out := make([]float64, m.NumCands)
	for i := range out {
		out[i] = lt.posterior(m.RowLabels(i))
	}
	return out
}

// MajorityVote returns marginals by unweighted voting — the baseline
// data programming improves on. Ties and empty rows yield 0.5.
func MajorityVote(m *Matrix) []float64 {
	m = m.Compact()
	out := make([]float64, m.NumCands)
	for i := range out {
		pos, neg := 0, 0
		for _, e := range m.RowLabels(i) {
			if e.Val > 0 {
				pos++
			} else {
				neg++
			}
		}
		// Laplace-smoothed vote fraction; empty rows and ties yield 0.5.
		out[i] = float64(pos+1) / float64(pos+neg+2)
	}
	return out
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// FilterByModality partitions LFs into textual and metadata pools —
// the Figure 8 supervision-ablation split (metadata = structural,
// tabular and visual).
func FilterByModality(lfs []LF, keep func(features.Modality) bool) []LF {
	var out []LF
	for _, lf := range lfs {
		if keep(lf.Modality) {
			out = append(out, lf)
		}
	}
	return out
}

// TextualOnly keeps textual LFs.
func TextualOnly(lfs []LF) []LF {
	return FilterByModality(lfs, func(m features.Modality) bool { return m == features.Textual })
}

// MetadataOnly keeps structural/tabular/visual LFs.
func MetadataOnly(lfs []LF) []LF {
	return FilterByModality(lfs, func(m features.Modality) bool { return m != features.Textual })
}

// String implements fmt.Stringer for diagnostics.
func (mod *Model) String() string {
	return fmt.Sprintf("Model(prior=%.3f, %d LFs, %d EM iters)", mod.Prior, len(mod.Acc), mod.Iterations)
}
