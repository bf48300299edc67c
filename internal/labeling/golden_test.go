package labeling_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"repro/internal/candidates"
	"repro/internal/labeling"
	"repro/internal/sparse"
	"repro/internal/synth"
)

// synthMatrix is the label matrix of one synthetic electronics task:
// its LFs applied to the throttled document-scope candidates.
func synthMatrix(seed int64, nDocs int) *labeling.Matrix {
	c := synth.Electronics(seed, nDocs)
	task := c.Tasks[0]
	e := &candidates.Extractor{Args: task.Args, Scope: candidates.DocumentScope, Throttlers: task.Throttlers}
	return labeling.Apply(task.LFs, e.ExtractAll(c.Docs))
}

// randomMatrix draws an n×k label matrix in which each cell votes
// with probability density, +1 with probability pos among votes.
// Rows whose index is a multiple of emptyEvery (when positive) are
// left unlabeled.
func randomMatrix(seed int64, n, k int, density, pos float64, emptyEvery int) *labeling.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := labeling.NewMatrix(sparse.NewCOO(), n, k)
	for i := 0; i < n; i++ {
		if emptyEvery > 0 && i%emptyEvery == 0 {
			continue
		}
		for j := 0; j < k; j++ {
			if rng.Float64() >= density {
				continue
			}
			v := -1.0
			if rng.Float64() < pos {
				v = 1
			}
			m.M.Set(i, j, v)
		}
	}
	return m
}

// fitHash is the SHA-256 over math.Float64bits of Acc, Prior and every
// marginal, little-endian, followed by Iterations.
func fitHash(mod *labeling.Model, marg []float64) string {
	h := sha256.New()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for _, a := range mod.Acc {
		put(math.Float64bits(a))
	}
	put(math.Float64bits(mod.Prior))
	for _, p := range marg {
		put(math.Float64bits(p))
	}
	put(uint64(mod.Iterations))
	return hex.EncodeToString(h.Sum(nil))
}

// TestFitGolden pins the fitted generative model and its marginals bit
// for bit on four label matrices, each with and without a learned
// prior. The hashes were recorded with the one-posterior-per-row EM
// that evaluated math.Log per label entry; any rewrite of Fit or
// Marginals must reproduce them exactly.
//
// Go may fuse x*y+z into an FMA inside the math package's pure-Go
// kernels on arm64, ppc64, s390x and GOAMD64=v3 or later, so the test
// only runs on amd64 at GOAMD64=v1.
func TestFitGolden(t *testing.T) {
	if !goldenUnfused {
		t.Skip("golden fits are recorded for amd64 with GOAMD64=v1 (no FMA fusion)")
	}
	cases := []struct {
		name  string
		m     *labeling.Matrix
		iters int // Iterations with the fixed prior
		fixed string
		learn string
	}{
		{"synth-electronics", synthMatrix(3, 12), 16,
			"356c8fb7c0fbbe54ec311c71aa3513a4d6454b1e145315486b3b66eb85ef2ed1",
			"3ba412c164f80ddc2a7ba82744e12e288bea53a0a4c73eaead84936948428902"},
		{"iteration-cap", randomMatrix(1, 120, 5, 0.7, 0.5, 0), 50,
			"f18c982d55e8cd212858e190c3cafb494caf6d1343994f59d05de87c73877d21",
			"65627cfc94f566034c2d27324e91111e1072d90d1925b4f38d15a2fff222d34c"},
		{"empty-rows", randomMatrix(2, 300, 6, 0.3, 0.4, 3), 50,
			"497362fcde38be62e5cf29326f9a4648983fec82db788fb7e91163ce0aa61a72",
			"3b0ee31fc2302375ccb3a599aff093f01b27ea41fab2361036fc88462c433201"},
		{"dense-random", randomMatrix(3, 200, 9, 0.6, 0.5, 0), 50,
			"5fb4861461ee4e222b315525df42189fe2ad90fb3cd9d12acb82d4c5af407b0f",
			"4758ea0ad9f9ef440e8dea0d770338fc494d7597431653143bf5e475386739e2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, learn := range []bool{false, true} {
				mod := labeling.Fit(tc.m, labeling.FitOptions{LearnPrior: learn})
				got := fitHash(mod, mod.Marginals(tc.m))
				want := tc.fixed
				if learn {
					want = tc.learn
				} else if mod.Iterations != tc.iters {
					t.Errorf("Iterations = %d, want %d", mod.Iterations, tc.iters)
				}
				if got != want {
					t.Errorf("LearnPrior=%v: fit hash %s, want %s", learn, got, want)
				}
			}
		})
	}
}
