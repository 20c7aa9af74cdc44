package main

import (
	"math"
	"sync"
	"time"
)

// The host this benchmark runs on is shared, and its speed moves by ±20 %
// over seconds to minutes (by 2x when the hypervisor takes the CPUs away)
// for every kind of code at once, with the process's own CPU share
// constant: identical 20 s stretches of store-direct measured 105k–164k
// cmd/s within ten minutes. No amount of repetition inside a run averages
// away a drift that is longer than the run. So the measured phase
// alternates load windows with short samples of two fixed reference
// kernels, and every host-clock end-to-end metric is reported at the
// reference host speed: a rate divided by, a time multiplied by, the speed
// index of its window. On probes of all four workloads that took the spread
// between 20 s stretches from 7–17 % to 0.4–4 %. (Each kernel alone, a
// pointer chase through 32 MiB, or all three together did worse.)
//
// The kernels are part of the benchmark's definition: a change to them
// re-bases every host-clock metric.

const (
	windowLen = 250 * time.Millisecond // load between two samples
	refSlot   = 20 * time.Millisecond  // per kernel per sample
	refTable  = 100_000                // map entries, about 2 MiB: past L2, inside L3
	refBlock  = 2000                   // iterations between clock reads
)

// refNominal is each kernel's iterations per second per goroutine on the box
// the baseline was recorded on, in a quiet phase, with one goroutine and
// with two side by side. A speed index of 1 means that speed.
var refNominal = [2][2]float64{
	{5.8e8, 4.5e7},
	{5.3e8, 3.7e7},
}

// hostRef holds the reference kernels' data.
type hostRef struct {
	table map[uint64]uint64
	heap  uint64    // live heap the table occupies, which heap_mb leaves out
	sink  [2]uint64 // keeps the kernels' results alive, one per goroutine
}

// hostReference builds the kernels' data once per process.
var hostReference = sync.OnceValue(func() *hostRef {
	before := heapAfterGC()
	h := &hostRef{table: make(map[uint64]uint64, refTable)}
	for i := uint64(0); i < refTable; i++ {
		h.table[i] = i
	}
	h.heap = heapAfterGC() - before
	return h
})

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// rate runs block until refSlot has passed and returns iterations per second.
func rate(block func()) float64 {
	n := 0
	start := time.Now()
	for time.Since(start) < refSlot {
		block()
		n += refBlock
	}
	return float64(n) / time.Since(start).Seconds()
}

// kernels runs both kernels on the calling goroutine and returns their
// rates: a dependent chain of integer operations (the core's speed), and Go
// map lookups at random keys (the cache hierarchy's).
func (h *hostRef) kernels(g int) (rates [2]float64) {
	x, sum := uint64(88172645463325252), uint64(0)
	rates[0] = rate(func() {
		y := x // a local copy stays in a register
		for i := 0; i < refBlock; i++ {
			y = xorshift(y)
		}
		x = y
	})
	rates[1] = rate(func() {
		y, s := x, sum
		for i := 0; i < refBlock; i++ {
			y = xorshift(y)
			s += h.table[y%refTable]
		}
		x, sum = y, s
	})
	h.sink[g] = x + sum
	return rates
}

// hostSpeed measures the host's speed now, on procs goroutines at once (as
// many as the load keeps busy), and returns the speed index: the geometric
// mean over kernels and goroutines of measured rate ÷ nominal rate. It takes
// 2 × refSlot.
func hostSpeed(procs int) float64 {
	h := hostReference()
	all := make([][2]float64, procs)
	var wg sync.WaitGroup
	for g := range all {
		wg.Add(1)
		go func() {
			defer wg.Done()
			all[g] = h.kernels(g)
		}()
	}
	wg.Wait()
	var logSum float64
	for _, rates := range all {
		for k, r := range rates {
			logSum += math.Log(r / refNominal[procs-1][k])
		}
	}
	return math.Exp(logSum / float64(2*procs))
}
