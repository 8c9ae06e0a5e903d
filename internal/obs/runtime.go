package obs

import (
	"math"
	"runtime/metrics"
)

// Runtime metric names contributed by RegisterRuntimeMetrics. Process
// health rides in the same registry as the engine counters, so one
// snapshot (or one Prometheus scrape) holds goroutine counts and GC
// pauses alongside query rates, and a reader comparing two of them can
// answer "was that latency spike a GC pause or a reader convoy?".
const (
	runtimeGoroutines = "runtime.goroutines"
	runtimeHeapInuse  = "runtime.heap_inuse_bytes"
	runtimeGCCycles   = "runtime.gc_cycles"
	runtimeGCPauseP99 = "runtime.gc_pause_p99_ns"
	runtimeTotalAlloc = "runtime.heap_allocs_bytes"
)

// runtimeSamples are the runtime/metrics series the collector reads.
var runtimeSamples = []string{
	"/sched/goroutines:goroutines",
	"/memory/classes/heap/objects:bytes",
	"/gc/cycles/total:gc-cycles",
	"/gc/pauses:seconds",
	"/gc/heap/allocs:bytes",
}

// RegisterRuntimeMetrics contributes a process-health collector to the
// registry: goroutine count, heap in-use bytes, cumulative GC cycles
// and allocated bytes, and the GC pause p99 — all read through
// runtime/metrics, so one batched read per registry snapshot.
func RegisterRuntimeMetrics(r *Registry) {
	if r == nil {
		return
	}
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		samples[i].Name = name
	}
	r.CollectorFunc("runtime", func() []Metric {
		local := make([]metrics.Sample, len(samples))
		copy(local, samples)
		metrics.Read(local)
		out := make([]Metric, 0, len(local))
		add := func(name string, kind Kind, v int64) {
			out = append(out, Metric{Name: name, Kind: kind, Value: v})
		}
		for _, s := range local {
			switch s.Name {
			case "/sched/goroutines:goroutines":
				if s.Value.Kind() == metrics.KindUint64 {
					add(runtimeGoroutines, KindGauge, int64(s.Value.Uint64()))
				}
			case "/memory/classes/heap/objects:bytes":
				if s.Value.Kind() == metrics.KindUint64 {
					add(runtimeHeapInuse, KindGauge, int64(s.Value.Uint64()))
				}
			case "/gc/cycles/total:gc-cycles":
				if s.Value.Kind() == metrics.KindUint64 {
					add(runtimeGCCycles, KindCounter, int64(s.Value.Uint64()))
				}
			case "/gc/heap/allocs:bytes":
				if s.Value.Kind() == metrics.KindUint64 {
					add(runtimeTotalAlloc, KindCounter, int64(s.Value.Uint64()))
				}
			case "/gc/pauses:seconds":
				if s.Value.Kind() == metrics.KindFloat64Histogram {
					if h := s.Value.Float64Histogram(); h != nil {
						add(runtimeGCPauseP99, KindGauge, float64HistQuantile(h, 0.99))
					}
				}
			}
		}
		return out
	})
}

// float64HistQuantile estimates the q-quantile of a runtime/metrics
// float histogram, returned in nanoseconds (the histograms this package
// reads are all seconds-valued).
func float64HistQuantile(h *metrics.Float64Histogram, q float64) int64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total-1))
	var seen uint64
	for i, c := range h.Counts {
		seen += c
		if seen > rank {
			// Bucket i spans Buckets[i]..Buckets[i+1]; report the upper
			// bound, clamped for the +Inf tail.
			ub := h.Buckets[i+1]
			if math.IsInf(ub, 1) {
				ub = h.Buckets[i]
			}
			return int64(ub * 1e9)
		}
	}
	return 0
}
