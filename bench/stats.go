package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile returns the p-quantile (0..1) of xs by linear interpolation
// between order statistics. xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := p * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// FNV-1a, 64 bit, one byte at a time: the digests of decoded timelines.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

// ratio is a/b, or 0 when b is 0: a layer that saw no work reports 0
// rather than NaN, which JSON cannot carry.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
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

// procSnap is a point-in-time reading of the Go runtime's allocation and
// GC accounting; two snaps bracket a measured window.
type procSnap struct {
	allocBytes float64
	gcCPU      float64
	totalCPU   float64
	pauses     *metrics.Float64Histogram
}

const (
	metricAllocs   = "/gc/heap/allocs:bytes"
	metricGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	metricTotalCPU = "/cpu/classes/total:cpu-seconds"
	metricPauses   = "/sched/pauses/total/gc:seconds"
)

func readProc() procSnap {
	s := []metrics.Sample{{Name: metricAllocs}, {Name: metricGCCPU}, {Name: metricTotalCPU}, {Name: metricPauses}}
	metrics.Read(s)
	snap := procSnap{}
	if s[0].Value.Kind() == metrics.KindUint64 {
		snap.allocBytes = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		snap.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		snap.totalCPU = s[2].Value.Float64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[3].Value.Float64Histogram()
		snap.pauses = &metrics.Float64Histogram{
			Counts:  append([]uint64(nil), h.Counts...),
			Buckets: append([]float64(nil), h.Buckets...),
		}
	}
	return snap
}

// maxPauseSince returns the upper edge (ms) of the highest GC-pause bucket
// that gained a sample between before and s.
func (s procSnap) maxPauseSince(before procSnap) float64 {
	if s.pauses == nil || before.pauses == nil || len(s.pauses.Counts) != len(before.pauses.Counts) {
		return 0
	}
	for i := len(s.pauses.Counts) - 1; i >= 0; i-- {
		if s.pauses.Counts[i] > before.pauses.Counts[i] {
			edge := s.pauses.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = s.pauses.Buckets[i]
			}
			return edge * 1000
		}
	}
	return 0
}
