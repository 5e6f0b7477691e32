package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile for it to count as measured rather than extrapolated.
const tailMinBeyond = 10

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs need not be sorted. It returns NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// beyond is the number of samples out of n ranked above the q-quantile:
// n minus the nearest-rank position ceil(q·n).
func beyond(n int, q float64) int {
	b := n - int(math.Ceil(q*float64(n)-1e-9))
	if b < 0 {
		return 0
	}
	return b
}

// tailOK reports whether n samples put at least tailMinBeyond samples
// beyond the q-quantile.
func tailOK(n int, q float64) bool { return beyond(n, q) >= tailMinBeyond }

// highestTail returns the highest quantile that still has
// tailMinBeyond samples beyond it, or 0 when n is too small for any.
func highestTail(n int) float64 {
	if n <= tailMinBeyond {
		return 0
	}
	return float64(n-tailMinBeyond) / float64(n)
}

// median is the 0.5-quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms and secs convert durations to float milliseconds and seconds.
func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }
func secs(d time.Duration) float64 { return d.Seconds() }

// heapInUse reads the runtime's HeapInuse equivalent (live object bytes
// plus the unused part of in-use spans) without stopping the world.
func heapInUse() uint64 {
	s := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

// gcCycles reads the number of completed GC cycles.
func gcCycles() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler tracks the HeapInuse high-water mark by sampling it on a
// fixed period until stopped.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

func startHeapSampler(period time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{}), peak: heapInUse()}
	go func() {
		defer close(h.done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				v := heapInUse()
				h.mu.Lock()
				if v > h.peak {
					h.peak = v
				}
				h.mu.Unlock()
			}
		}
	}()
	return h
}

// Stop ends sampling, waits for the sampler to exit and returns the
// peak in bytes.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	if v := heapInUse(); v > h.peak {
		h.peak = v
	}
	return h.peak
}
