package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailLadder lists the percentiles tail reports, highest first, each
// with the 1/(1-q) that turns a sample count into the count beyond it.
var tailLadder = []struct {
	q   float64
	per int
}{{0.999, 1000}, {0.99, 100}, {0.9, 10}, {0.5, 2}}

// tailRule is the minimum number of samples that must lie beyond a
// reported tail percentile.
const tailRule = 10

// tail reports the highest percentile of xs with at least tailRule
// samples beyond it, and which percentile that is. With too few samples
// for any rung of the ladder it reports the maximum (q = 1), so the
// label printed beside the value never claims a percentile the sample
// count cannot support.
func tail(xs []float64) (value, q float64) {
	for _, r := range tailLadder {
		if len(xs)/r.per >= tailRule {
			return percentile(xs, r.q), r.q
		}
	}
	return percentile(xs, 1), 1
}

// tailLabel names the percentile tail chose, e.g. "p99" or "max".
func tailLabel(q float64) string {
	if q >= 1 {
		return "max"
	}
	return fmt.Sprintf("p%g", q*100)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// memSnap is a point-in-time reading of the process allocator.
type memSnap struct {
	bytes, mallocs uint64
}

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{bytes: m.TotalAlloc, mallocs: m.Mallocs}
}

// cost is the host time and allocations one measured section took.
type cost struct {
	dur     time.Duration
	bytes   uint64
	mallocs uint64
}

func (c cost) add(o cost) cost {
	return cost{c.dur + o.dur, c.bytes + o.bytes, c.mallocs + o.mallocs}
}

// sub takes out the cost of a part measured on its own. Allocation
// counts stop at zero; time may go negative when the part ran slower
// alone than inside the whole.
func (c cost) sub(o cost) cost {
	return cost{c.dur - o.dur, c.bytes - min(c.bytes, o.bytes), c.mallocs - min(c.mallocs, o.mallocs)}
}

// measure runs f and reports its host time and allocations.
func measure(f func()) cost {
	before := readMem()
	start := time.Now()
	f()
	d := time.Since(start)
	after := readMem()
	return cost{dur: d, bytes: after.bytes - before.bytes, mallocs: after.mallocs - before.mallocs}
}

// spinSink keeps spin's loop from being optimized away.
var spinSink uint64

// spin burns a fixed amount of host CPU: the injected-slowdown shim.
func spin(iters int) {
	x := spinSink
	for i := 0; i < iters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	spinSink = x
}
