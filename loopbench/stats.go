package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

// The pooled round metrics need at least minIterSamples rounds, and the
// slowest quarter at least minTailSamples of them.
const (
	minIterSamples = 20
	minTailSamples = 10
)

// iterMetrics returns iter_mean_ms and iter_top25_mean_ms over pooled
// round times, leaving out either one the pool is too small for.
//
// Means stand in for percentiles because round latency has two modes.
// Rounds before the user has labelled both a match and a non-match only
// walk the aggregated ranking and take microseconds; later rounds fit and
// apply the forest and take milliseconds, more when they overlap a join
// or a GC cycle. A percentile falls between modes or on the edge of one
// and jumps with their mix from run to run; a mean over a quarter of the
// pool does not.
func iterMetrics(iters []time.Duration) map[string]float64 {
	out := map[string]float64{}
	ms := millis(iters)
	if len(ms) < minIterSamples {
		return out
	}
	sort.Float64s(ms)
	out["iter_mean_ms"] = mean(ms)
	if top := ms[len(ms)-len(ms)/4:]; len(top) >= minTailSamples {
		out["iter_top25_mean_ms"] = mean(top)
	}
	return out
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fingerprint identifies the machine and run, so a later comparison can
// tell machine noise from scheduler-dependent join work.
func fingerprint(workload string, seed int64) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"cpu_model":  cpuModel(),
		"workload":   workload,
		"seed":       seed,
	}
}
