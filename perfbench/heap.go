package main

import (
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"
)

// heapObjects is the runtime metric sampled for the heap peak: bytes in
// heap objects, live or not yet swept.
const heapObjects = "/memory/classes/heap/objects:bytes"

// heapPeak samples the heap from its own goroutine until stopped and
// keeps the largest reading.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

// startHeapPeak collects garbage left by earlier work, so a measured
// phase never inherits another's peak, then starts sampling.
func startHeapPeak() *heapPeak {
	runtime.GC()
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go h.loop()
	return h
}

func (h *heapPeak) loop() {
	defer close(h.done)
	s := []metrics.Sample{{Name: heapObjects}}
	t := time.NewTicker(time.Millisecond)
	defer t.Stop()
	for {
		metrics.Read(s)
		v := s[0].Value.Uint64()
		for p := h.peak.Load(); v > p && !h.peak.CompareAndSwap(p, v); p = h.peak.Load() {
		}
		select {
		case <-h.stop:
			return
		case <-t.C:
		}
	}
}

// Take returns the peak in MB since the previous Take (or the start) and
// starts a new one.
func (h *heapPeak) Take() float64 {
	return float64(h.peak.Swap(0)) / (1 << 20)
}

// Stop ends sampling and returns the peak in MB since the last Take.
func (h *heapPeak) Stop() float64 {
	close(h.stop)
	<-h.done
	return h.Take()
}

// memDelta is what the runtime allocated and collected between two
// readings.
type memDelta struct {
	AllocBytes uint64
	Mallocs    uint64
	GCs        uint32
}

// readMem reads the runtime's cumulative allocation counters.
func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
		Mallocs:    after.Mallocs - before.Mallocs,
		GCs:        after.NumGC - before.NumGC,
	}
}
