package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place. Empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (pos-float64(lo))*(xs[hi]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail returns the 99th percentile when at least ten samples lie beyond
// it, and otherwise the highest percentile that keeps ten samples
// beyond it: with fewer samples a 99th percentile would be the maximum,
// not a tail.
func tail(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	q := 0.99
	if n := float64(len(xs)); 10/n > 1-q {
		q = math.Max(0.5, 1-10/n)
	}
	return quantile(xs, q)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// hostRef times a fixed integer loop. Its drift across a run shows how
// much the host's speed moved; it measures nothing of the program.
func hostRef() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	d := time.Since(start)
	if x == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: xorshift reached zero") // keeps the loop live
	}
	return float64(d.Nanoseconds()) / 1e6
}

// procCounters snapshots the runtime's allocation and GC counters.
type procCounters struct{ bytes, mallocs, gcs uint64 }

func readProc() procCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procCounters{ms.TotalAlloc, ms.Mallocs, uint64(ms.NumGC)}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
