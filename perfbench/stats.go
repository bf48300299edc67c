package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// runtimeSample reads the Go runtime counters the per-layer metrics
// need: CPU seconds spent in GC and in total, and bytes allocated.
type runtimeSample struct {
	gcCPU, totalCPU float64
	allocBytes      uint64
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var r runtimeSample
	if s[0].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		r.totalCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = s[2].Value.Uint64()
	}
	return r
}

// gcFraction is the share of CPU time the GC used between two samples.
func gcFraction(a, b runtimeSample) float64 {
	if b.totalCPU <= a.totalCPU {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / (b.totalCPU - a.totalCPU)
}

func allocMB(a, b runtimeSample) float64 { return float64(b.allocBytes-a.allocBytes) / (1 << 20) }

// heapLiveMB forces a GC and returns the live heap in MiB.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
