package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/synth"
)

// BenchmarkMirror ingests one fixed parsed 16-document batch into a
// fresh store per iteration, on each storage engine. ns/op covers the
// whole AddDocuments call; mirror_ms is its mirror span alone, the
// kbase writes (dedup index and engine appends) of the delta.
func BenchmarkMirror(b *testing.B) {
	elec := synth.Electronics(8, 16)
	task := elec.Tasks[0]
	for _, backend := range []string{"memory", "disk", "columnar"} {
		b.Run(backend, func(b *testing.B) {
			opts := core.Options{Seed: 1, Workers: 1, Backend: backend}
			b.ReportAllocs()
			mirrorMs := 0.0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				st := core.NewStore(task, opts)
				b.StartTimer()
				if err := st.AddDocuments(elec.Docs...); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				for _, sp := range st.TakeIngestSpans() {
					if sp.Name == "mirror" {
						mirrorMs += sp.DurationMs
					}
				}
				st.Close()
				b.StartTimer()
			}
			b.ReportMetric(mirrorMs/float64(b.N), "mirror_ms")
		})
	}
}
