package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"io"
	"sort"
	"time"
)

// epoch anchors the harness clock; now is monotonic nanoseconds since it
// (time.Since on a monotonic reading is one clock read, cheaper than
// time.Now).
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// quantile returns the q-quantile (0..1) of sorted values by linear
// interpolation between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// spread is the interquartile distance as a share of the median — the
// run-to-run resolution a bound is compared against. The quartiles are the
// ones Python's statistics.quantiles(v, n=4) gives (its default, exclusive
// method), because that is what the driver judges this benchmark by.
func spread(v []float64) float64 {
	s := sortedCopy(v)
	med := quantile(s, 0.5)
	if med == 0 || len(s) < 2 {
		return 0
	}
	quartile := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / med
}

// percentileLadder lists the tail percentiles the report chooses from, each
// with the samples per 10 000 that lie beyond it (integers, so the choice
// never hangs on a float rounding).
var percentileLadder = []struct {
	pct    float64
	beyond int
}{{50, 5000}, {75, 2500}, {90, 1000}, {95, 500}, {99, 100}, {99.9, 10}, {99.99, 1}}

// tailPercentile returns the highest ladder percentile that still has at
// least ten of n samples beyond it (0 when even the median has not).
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if n*p.beyond >= 10*10000 {
			best = p.pct
		}
	}
	return best
}

// latencySummary describes pooled latencies (ns): the median, the 99th
// percentile, and the highest percentile the sample count supports.
type latencySummary struct {
	N             int
	P50, P99      float64 // ms
	TailPct, Tail float64 // highest supported percentile and its value, ms
}

func summarizeLatencies(ns []int64) latencySummary {
	v := make([]float64, len(ns))
	for i, x := range ns {
		v[i] = float64(x) / 1e6
	}
	sort.Float64s(v)
	s := latencySummary{N: len(v), P50: quantile(v, 0.5), P99: quantile(v, 0.99)}
	s.TailPct = tailPercentile(len(v))
	s.Tail = quantile(v, s.TailPct/100)
	return s
}

// stampWriter is the in-memory io.Writer handed to ledger.NewWriter. The
// ledger issues one Write for its header and then one per accepted run, in
// serial order, so successive stamps bracket exactly one injection run.
type stampWriter struct {
	buf    []byte
	stamps []int64
}

func newStampWriter() *stampWriter {
	// Sized for a full campaign so the timed region never grows them.
	return &stampWriter{buf: make([]byte, 0, 512<<10), stamps: make([]int64, 0, 4096)}
}

func (w *stampWriter) Write(p []byte) (int, error) {
	w.stamps = append(w.stamps, now())
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// gaps returns one latency per record: the time from the previous write
// (the header's, for the first record) to the record's own. The header
// write itself is attributed to nothing.
func (w *stampWriter) gaps() []int64 {
	if len(w.stamps) < 2 {
		return nil
	}
	out := make([]int64, len(w.stamps)-1)
	for i := range out {
		out[i] = w.stamps[i+1] - w.stamps[i]
	}
	return out
}

// digest is FNV-64a, the results fingerprint two commits are compared by.
type digest struct{ hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

func (d digest) str(s string) {
	io.WriteString(d, s) // hash writes never fail
	d.Write([]byte{0})
}

func (d digest) i64(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	d.Write(b[:])
}
