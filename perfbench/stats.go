package main

import (
	"io/fs"
	"math"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"

	"bside/internal/eval"
	"bside/internal/linux"
)

const mib = 1 << 20

// quantile is the nearest-rank q-quantile of vals (0 when empty).
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// f1 scores an answer against emulator truth; a fail-open answer
// stands for the full syscall table, as in the paper's evaluation.
func f1(syscalls []uint64, failOpen bool, truth []uint64) float64 {
	if failOpen {
		syscalls = linux.All()
	}
	_, _, f := eval.PRF1(syscalls, truth)
	return f
}

// subset reports whether every truth entry is in set (both sorted).
func subset(truth, set []uint64) bool {
	i := 0
	for _, n := range truth {
		for i < len(set) && set[i] < n {
			i++
		}
		if i == len(set) || set[i] != n {
			return false
		}
	}
	return true
}

// procSample is a process's resource counters at one instant.
type procSample struct {
	CPUSeconds float64 `json:"cpu_s"` // user + system
	AllocBytes uint64  `json:"alloc_bytes"`
	Mallocs    uint64  `json:"mallocs"`
	GCSeconds  float64 `json:"gc_s"`   // Go runtime CPU in GC
	BusySecs   float64 `json:"busy_s"` // Go runtime CPU not idle
}

var procMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func readProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := append([]metrics.Sample(nil), procMetrics...)
	metrics.Read(samples)
	val := func(i int) float64 {
		if samples[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return samples[i].Value.Float64()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return procSample{
		CPUSeconds: tv(ru.Utime) + tv(ru.Stime),
		AllocBytes: ms.TotalAlloc,
		Mallocs:    ms.Mallocs,
		GCSeconds:  val(0),
		BusySecs:   val(1) - val(2),
	}
}

func (p procSample) sub(q procSample) procSample {
	return procSample{
		CPUSeconds: p.CPUSeconds - q.CPUSeconds,
		AllocBytes: p.AllocBytes - q.AllocBytes,
		Mallocs:    p.Mallocs - q.Mallocs,
		GCSeconds:  p.GCSeconds - q.GCSeconds,
		BusySecs:   p.BusySecs - q.BusySecs,
	}
}

// setProc reports a process delta measured over wall seconds.
func (r *run) setProc(p procSample, wall float64) {
	r.set("proc.cpu_util", share(p.CPUSeconds, wall*float64(r.jobs)))
	r.set("proc.alloc_mb", float64(p.AllocBytes)/mib)
	r.set("proc.mallocs", float64(p.Mallocs))
	r.set("proc.gc_cpu_share", share(p.GCSeconds, p.BusySecs))
}

// dirUsage counts the regular files under dir and their bytes.
func dirUsage(dir string) (files int, bytes int64) {
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			files++
			bytes += info.Size()
		}
		return nil
	})
	return files, bytes
}
