package model

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/candidates"
	"repro/internal/datamodel"
)

// goldenCase is one fixed-seed training configuration whose trained
// weights are pinned bit for bit. The recorded values were produced by
// the closure-per-op tape and the unfused LSTM step; any rewrite of
// the training kernels must reproduce them exactly.
type goldenCase struct {
	name  string
	build func(exs []Example) *Model
	opts  TrainOptions
	// weights is the SHA-256 over math.Float64bits of every parameter
	// scalar in params order, little-endian.
	weights string
	// loss and prob are math.Float64bits of TrainStats.FinalLoss and
	// of PredictProb on the first example.
	loss, prob uint64
}

var goldenCases = []goldenCase{
	{
		name:    "fonduer-batch1",
		build:   func(exs []Example) *Model { return NewFonduer(1, 10, 11, exs) },
		opts:    TrainOptions{Epochs: 3, LR: 0.02, L2: 1e-4},
		weights: "0e51f1021a520df722f8f5acb7d310cfcc91c2399fbbb461fa15fb35eb7a14f0",
		loss:    0x3f55b995d9b52728,
		prob:    0x3feff99e073bab9c,
	},
	{
		name:    "fonduer-batch4-workers2",
		build:   func(exs []Example) *Model { return NewFonduer(1, 10, 12, exs) },
		opts:    TrainOptions{Epochs: 3, LR: 0.02, Batch: 4, Workers: 2},
		weights: "e2daf3831315b4d01d1d71f5e4bc217a8a675fbccced31dc37dda2c0ce9e576f",
		loss:    0x3fd6e3c2d148ff05,
		prob:    0x3fe8d1857cd7f5fb,
	},
	{
		name:    "text-bilstm",
		build:   func(exs []Example) *Model { return NewTextBiLSTM(1, 13, exs) },
		opts:    TrainOptions{Epochs: 2, LR: 0.02},
		weights: "bf5f9ff68a9557c675774a22114c426f0b279656542624af0099daf57a57a825",
		loss:    0x3fc94b2b75354c67,
		prob:    0x3fef9c78e779c518,
	},
	{
		name:    "maxpool",
		build:   func(exs []Example) *Model { return NewMaxPoolText(1, 14, exs) },
		opts:    TrainOptions{Epochs: 2, LR: 0.02},
		weights: "0874d27b7d5a66c2682f4ec0da17de0f3881ebb2f5c4a1495cb7820522c430b3",
		loss:    0x3fd71132e2e3906d,
		prob:    0x3fee9e8c97581187,
	},
	{
		name:    "doc-rnn",
		build:   func(exs []Example) *Model { return NewDocRNN(15, exs, 24) },
		opts:    TrainOptions{Epochs: 2},
		weights: "a4456fa87141c5f81574802a7efa70d7e51a22b39f77baffb2d32c83681634c8",
		loss:    0x3fe2398a053e1173,
		prob:    0x3fe51c0356095c31,
	},
	{
		name:    "human-tuned",
		build:   func(exs []Example) *Model { return NewHumanTuned(10, 16) },
		opts:    TrainOptions{Epochs: 4, LR: 0.05, L2: 1e-3},
		weights: "2d281eb1b46aa1959eb272268bab5894000ba9549516bbe91fb6614760a665c7",
		loss:    0x3fa26457d7cf9cd1,
		prob:    0x3fef1b869da7a474,
	},
}

// goldenDataset is mixedDataset with sentences of 6 to 30 tokens and
// the mention at a varying position, so reused training state sees
// sequences that grow and shrink.
func goldenDataset(n int) []Example {
	out := make([]Example, n)
	for i := range out {
		cue, feats, marginal := "excellent", []int{1, 3}, 1.0
		if i%2 == 1 {
			cue, feats, marginal = "terrible", []int{2, 7}, 0
		}
		words := []string{"the", "part"}
		for k := 0; k < (i*5)%25; k++ {
			words = append(words, fmt.Sprintf("w%d", (i+k)%9))
		}
		words = append(words, "X"+fmt.Sprint(i%7), "is", cue, "today")
		b := datamodel.NewBuilder(fmt.Sprintf("doc%d", i), "html")
		s := b.AddSentence(b.AddParagraph(b.AddText()), words)
		b.Finish()
		at := len(words) - 4
		out[i] = Example{
			Cand:        &candidates.Candidate{ID: i, Mentions: []candidates.Mention{{TypeName: "X", Span: datamodel.NewSpan(s, at, at+1)}}},
			SparseFeats: feats,
			Marginal:    marginal,
		}
	}
	return out
}

// weightHash is the SHA-256 over every parameter scalar's bit pattern.
func weightHash(m *Model) string {
	h := sha256.New()
	var buf [8]byte
	for _, p := range m.params {
		for _, w := range p.W {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(w))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTrainGoldenWeights pins trained weights, final loss and one
// prediction for six fixed-seed configurations to values recorded
// before the training kernels were rewritten. Unlike
// TestTrainBatch1MatchesSequentialReference, whose oracle runs through
// the same neural package it checks, these constants do not move when
// that package changes.
//
// The pinned bits assume every x*y+z is rounded twice. Go fuses such
// expressions into an FMA on arm64, ppc64, s390x and GOAMD64=v3 or
// later, so the test only runs on amd64 at GOAMD64=v1.
func TestTrainGoldenWeights(t *testing.T) {
	if !goldenUnfused {
		t.Skip("golden weights are recorded for amd64 with GOAMD64=v1 (no FMA fusion)")
	}
	exs := goldenDataset(12)
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.build(exs)
			st := m.Train(exs, tc.opts)
			p := m.PredictProb(exs[0])
			if got := weightHash(m); got != tc.weights {
				t.Errorf("weight hash %s, want %s", got, tc.weights)
			}
			if got := math.Float64bits(st.FinalLoss); got != tc.loss {
				t.Errorf("FinalLoss %v (%#x), want %v (%#x)", st.FinalLoss, got, math.Float64frombits(tc.loss), tc.loss)
			}
			if got := math.Float64bits(p); got != tc.prob {
				t.Errorf("PredictProb %v (%#x), want %v (%#x)", p, got, math.Float64frombits(tc.prob), tc.prob)
			}
		})
	}
}
