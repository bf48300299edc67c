package labeling_test

import (
	"testing"

	"repro/internal/labeling"
)

// fitSink keeps BenchmarkFit's result live.
var fitSink *labeling.Model

// BenchmarkFit fits the generative model to the label matrix of one
// 40-document synthetic electronics task (the labeling.Fit span of a
// supervise stage).
func BenchmarkFit(b *testing.B) {
	m := synthMatrix(1, 40).Compact()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fitSink = labeling.Fit(m, labeling.FitOptions{})
	}
}
