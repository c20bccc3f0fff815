package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"sort"
	"strconv"
)

// The host-speed reference. The sandbox's speed drifts by 15–40 % over
// minutes (README, "Why the time metrics are host-corrected"): every
// workload slows down and speeds up together, CPU time moves with wall
// time, and a cache-resident ALU loop does not move at all — it is the
// memory system the neighbours share. No amount of repetition inside one
// run averages that out, so each run also times three fixed kernels that
// live here, outside the program under test, and lean on the memory system
// the way the workloads do. The run's time metrics are reported at nominal
// host speed: divided by how much slower than refNominalNs the kernels ran.
//
// A perf change to the program cannot move the kernels, so a speed-up of the
// program shows in full; a host that is 30 % slower in one run than in the
// next mostly does not. Each sample runs in a process of its own, so the
// kernels' heap never meets the collector, the pacer or the resident set of
// the program being measured.

const (
	chaseSlots = 8 << 20 // uint32 slots: a 32 MiB table, far beyond the 4 MiB L2
	chaseLoads = 700_000
	allocCount = 300_000
	allocLive  = 20_000 // ring of live blocks
	mixKeys    = 200_000

	// refNominalNs is one sample (the three kernels back to back) at the
	// sandbox's median speed when the baseline in the README was taken.
	refNominalNs = 330e6
)

// refSink keeps the kernels' results live.
var refSink uint64

// chase follows dependent loads through a table: memory latency.
func chase() {
	// A full-period linear congruential map (Hull–Dobell: c odd, a ≡ 1 mod 4)
	// is one cycle through every slot in an order no prefetcher follows.
	next := make([]uint32, chaseSlots)
	for i := range next {
		next[i] = (uint32(i)*1664525 + 1013904223) & (chaseSlots - 1)
	}
	i := uint32(0)
	for n := 0; n < chaseLoads; n++ {
		i = next[i]
	}
	refSink += uint64(i)
}

// alloc allocates blocks of 64 B – 4 KiB, touches each cache line and keeps
// a ring of them live: the allocator, the collector and fresh pages.
func alloc() {
	ring := make([][]byte, allocLive)
	x := uint32(2463534242)
	for n := 0; n < allocCount; n++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		b := make([]byte, 64<<(x%7))
		for i := 0; i < len(b); i += 64 {
			b[i] = byte(n)
		}
		ring[n%allocLive] = b
	}
	refSink += uint64(ring[0][0])
}

type shape interface{ area() float64 }

type square struct{ a float64 }

type rect struct{ a, b float64 }

func (s square) area() float64 { return s.a * s.a }
func (s rect) area() float64   { return s.a * s.b }

// mix is ordinary Go: string keys into a map, appends, a sort, interface
// calls — what the simulator's own bookkeeping looks like to the machine.
func mix() {
	m := make(map[string]int, mixKeys)
	keys := make([]string, 0, mixKeys)
	shapes := make([]shape, 0, mixKeys)
	for i := 0; i < mixKeys; i++ {
		k := "key-" + strconv.Itoa(i*7919%mixKeys)
		m[k] += i
		keys = append(keys, k)
		if i&1 == 0 {
			shapes = append(shapes, square{float64(i)})
		} else {
			shapes = append(shapes, rect{float64(i), 2})
		}
	}
	sort.Strings(keys)
	var a float64
	for _, s := range shapes {
		a += s.area()
	}
	refSink += uint64(a) + uint64(m[keys[mixKeys/2]])
}

// refSample times the three kernels once, in this process: ns.
func refSample() int64 {
	start := now()
	chase()
	alloc()
	mix()
	return now() - start
}

// reference collects one run's samples.
type reference struct {
	self    string // the harness executable, re-run as `<self> refsample`
	samples []float64
}

// sample takes one sample in a child process.
func (r *reference) sample() error {
	out, err := exec.Command(r.self, "refsample").Output()
	if err != nil {
		return fmt.Errorf("host-speed reference: %w", err)
	}
	ns, err := strconv.ParseInt(string(bytes.TrimSpace(out)), 10, 64)
	if err != nil {
		return fmt.Errorf("host-speed reference: %w", err)
	}
	r.samples = append(r.samples, float64(ns))
	return nil
}

// slowdown is how much slower than nominal the host ran the kernels over the
// run: the median sample over refNominalNs (1 = nominal, 1.3 = 30 % slower).
func (r *reference) slowdown() float64 { return median(r.samples) / refNominalNs }
