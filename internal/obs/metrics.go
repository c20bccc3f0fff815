// Package obs is the observability layer threaded through the whole stack:
// a per-process metrics registry (fixed-slot counters, gauges, and
// virtual-time histograms), a span-based causal tracer over *virtual* time
// that exports Chrome trace-event / Perfetto-compatible JSON, and a gated
// debug logger.
//
// The registry is engineered so the instrumented commit hot paths stay at
// zero steady-state heap allocations: every per-process counter slot is
// preallocated at construction, the histogram blocks once per registry by
// their first observer, counters are plain int64 fields, and histogram
// observation is a single array-bucket increment. The tracer, by
// contrast, buffers events in a growing slice (tracing is a diagnostic
// mode, not a hot-path one) and serializes them deterministically, so the
// same seed produces a byte-identical trace file.
package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"time"

	"failtrans/internal/event"
)

// HistBuckets is the number of power-of-two histogram buckets. Bucket i
// holds values v with bits.Len64(v) == i, i.e. 2^(i-1) <= v < 2^i (bucket 0
// holds zeros); 48 buckets cover every virtual-time duration the simulator
// can represent.
const HistBuckets = 48

// Histogram is a fixed-bucket log2 histogram of non-negative int64 values.
// Durations are observed as nanoseconds. Observe is a counter increment and
// a bucket increment — no allocation, ever.
type Histogram struct {
	Count   int64
	Sum     int64
	Max     int64
	Buckets [HistBuckets]int64
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.Count++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
	b := bits.Len64(uint64(v))
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	h.Buckets[b]++
}

// ObserveDuration records a virtual-time duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Merge folds histogram o into h. Buckets align exactly — every Histogram
// uses the same HistBuckets log2 layout — so merging is an elementwise sum,
// and merging per-process (or per-run) histograms is equivalent to having
// observed every value into one histogram. Merge(nil) is a no-op.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil {
		return
	}
	h.Count += o.Count
	h.Sum += o.Sum
	if o.Max > h.Max {
		h.Max = o.Max
	}
	for i := range o.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
}

// Mean returns the mean observed value (0 when empty).
func (h *Histogram) Mean() int64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / h.Count
}

// Quantile returns the upper bound of the bucket containing quantile q in
// [0,1] — a conservative estimate with power-of-two resolution.
func (h *Histogram) Quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	target := int64(q * float64(h.Count))
	if target >= h.Count {
		target = h.Count - 1
	}
	var seen int64
	for i, c := range h.Buckets {
		seen += c
		if seen > target {
			if i == 0 {
				return 0
			}
			ub := int64(1) << uint(i)
			if ub > h.Max || ub < 0 {
				ub = h.Max
			}
			return ub
		}
	}
	return h.Max
}

// ProcMetrics is one process's fixed-slot counter block. Every field is
// updated by plain increments on paths that must not allocate. The
// distributions a recovery layer observes live apart, in ProcHists, so a
// process that never commits, logs or rolls back carries counters only.
type ProcMetrics struct {
	// Events counts recorded events by kind (internal, visible, send,
	// receive, commit, crash).
	Events [event.KindCount]int64
	// EffectivelyND counts events still non-deterministic after logging;
	// Logged counts ND events whose result went to the persistent log.
	EffectivelyND int64
	Logged        int64

	// Commits / CommitBytes / CommitPages account the Discount Checking
	// commit path. CommitsVetoed counts commits a CommitVeto policy
	// deferred.
	Commits       int64
	CommitBytes   int64
	CommitPages   int64
	CommitsVetoed int64

	// LogForces counts synchronous log-force points.
	LogForces int64

	// Rollbacks counts recoveries; RolledBackEvents sums the events
	// discarded by them.
	Rollbacks        int64
	RolledBackEvents int64
	// ReplayedEvents counts events executed under constrained re-execution
	// (the recovery tax the paper's timelines visualize).
	ReplayedEvents int64

	// Crashes counts crash events (stop failures, panics, refused commits).
	Crashes int64

	// Syscalls counts kernel calls served for this process.
	Syscalls int64

	// InboxPeak is a gauge: the deepest the process's inbox ever got.
	InboxPeak int64
}

// ProcHists is one process's histogram block: the virtual-time
// distributions only a recovery layer observes. Metrics allocates the blocks
// of every process at once, on the first Hists call.
type ProcHists struct {
	// CommitLatency is the per-commit virtual-time cost and CommitSize the
	// per-commit dirty payload in bytes.
	CommitLatency Histogram
	CommitSize    Histogram
	// LogForceLatency is the virtual-time cost of each synchronous log
	// force.
	LogForceLatency Histogram
	// RollbackDepth is the per-recovery distribution of the events a
	// rollback discards (events since the last commit).
	RollbackDepth Histogram
}

// VistaMetrics is one segment's fixed-slot counter block, updated from the
// vista page-diff/undo-log hot path (plain increments only). The registry
// keeps one block per process, allocated for every process at once on the
// first VistaBlock call, and each segment touches only its own.
type VistaMetrics struct {
	Commits      int64
	Rollbacks    int64
	PagesDirtied int64
	UndoBytes    int64
	// HashHits counts pages an incoming image compared clean against the
	// resident page and skipped (the name dates from the hash cache the
	// comparison replaced; the benchmark and Fig 8 JSON read it).
	HashHits int64
	// PagesPrivatized counts pages a copy-on-write fork copied out of its
	// frozen template on first touch; BytesCOW totals the bytes copied.
	PagesPrivatized int64
	BytesCOW        int64
}

// Metrics is the per-run registry. All counter slots are preallocated by
// NewMetrics so instrumented hot paths never allocate; the exceptions are
// the syscall-by-name map, touched only on the (cold) kernel dispatch path,
// and the histogram and segment blocks, each allocated once per registry by
// its first observer.
type Metrics struct {
	Procs []ProcMetrics
	// Vista holds one segment block per process once a segment asked for
	// one (VistaBlock), and is nil before: a process without a segment
	// reads as zero counters.
	Vista []VistaMetrics
	// hists holds one ProcHists per process once anything has been
	// observed, and is nil before: readers treat a nil block as empty
	// histograms.
	hists []ProcHists

	// Steps counts scheduler decisions; TwoPhaseRounds counts coordinated
	// commit rounds.
	Steps          int64
	TwoPhaseRounds int64

	// SchedUpdates counts readiness-index reindex operations (insert,
	// move, delete) and SchedRebuilds counts full index rebuilds (first
	// decision after construction, Init, or Fork). Zero under the scan
	// scheduler.
	SchedUpdates  int64
	SchedRebuilds int64

	// FaultWindows / FaultCorruptions / KernelPanics account the kernel
	// fault-injection study.
	FaultWindows     int64
	FaultCorruptions int64
	KernelPanics     int64

	// SyscallByName counts kernel calls per syscall name.
	SyscallByName map[string]int64
}

// NewMetrics returns a registry with n preallocated per-process slots.
func NewMetrics(n int) *Metrics {
	return &Metrics{
		Procs:         make([]ProcMetrics, n),
		SyscallByName: make(map[string]int64),
	}
}

// Hists returns process pid's histogram block, allocating the blocks of
// every process on the registry's first call — the first commit, log force
// or rollback a recovery layer observes — and again only if Merge grew Procs.
func (m *Metrics) Hists(pid int) *ProcHists {
	if len(m.hists) < len(m.Procs) {
		grown := make([]ProcHists, len(m.Procs))
		copy(grown, m.hists)
		m.hists = grown
	}
	return &m.hists[pid]
}

// VistaBlock returns process pid's segment block, allocating the blocks of
// every process on the registry's first call — the first segment a recovery
// layer builds — and again only if Merge grew Procs.
func (m *Metrics) VistaBlock(pid int) *VistaMetrics {
	if len(m.Vista) < len(m.Procs) {
		//failtrans:alloc once per registry, by the first segment built; every later call returns a slot
		grown := make([]VistaMetrics, len(m.Procs))
		copy(grown, m.Vista)
		m.Vista = grown
	}
	return &m.Vista[pid]
}

// hist returns process i's histogram block for reading without allocating:
// a registry nothing was observed into reads as empty histograms.
func (m *Metrics) hist(i int) *ProcHists {
	if i < len(m.hists) {
		return &m.hists[i]
	}
	return &emptyHists
}

// emptyHists and emptyVista are the blocks readers see where none has been
// allocated; they are only ever read.
var (
	emptyHists ProcHists
	emptyVista VistaMetrics
)

// merge folds one process block into another (counter sums, gauge max).
func (p *ProcMetrics) merge(o *ProcMetrics) {
	for i := range o.Events {
		p.Events[i] += o.Events[i]
	}
	p.EffectivelyND += o.EffectivelyND
	p.Logged += o.Logged
	p.Commits += o.Commits
	p.CommitBytes += o.CommitBytes
	p.CommitPages += o.CommitPages
	p.CommitsVetoed += o.CommitsVetoed
	p.LogForces += o.LogForces
	p.Rollbacks += o.Rollbacks
	p.RolledBackEvents += o.RolledBackEvents
	p.ReplayedEvents += o.ReplayedEvents
	p.Crashes += o.Crashes
	p.Syscalls += o.Syscalls
	if o.InboxPeak > p.InboxPeak {
		p.InboxPeak = o.InboxPeak
	}
}

// merge folds one histogram block into another.
func (h *ProcHists) merge(o *ProcHists) {
	h.CommitLatency.Merge(&o.CommitLatency)
	h.CommitSize.Merge(&o.CommitSize)
	h.LogForceLatency.Merge(&o.LogForceLatency)
	h.RollbackDepth.Merge(&o.RollbackDepth)
}

// merge folds one segment block into another.
func (v *VistaMetrics) merge(o *VistaMetrics) {
	v.Commits += o.Commits
	v.Rollbacks += o.Rollbacks
	v.PagesDirtied += o.PagesDirtied
	v.UndoBytes += o.UndoBytes
	v.HashHits += o.HashHits
	v.PagesPrivatized += o.PagesPrivatized
	v.BytesCOW += o.BytesCOW
}

// Merge folds registry o into m: counters sum, gauges take the max,
// histograms merge bucket-for-bucket, and per-process slots pair up by
// index (m grows if o has more processes). Merging per-run registries is
// how a campaign aggregates observability across runs that each carried
// their own registry. Merge(nil) is a no-op.
func (m *Metrics) Merge(o *Metrics) {
	if o == nil {
		return
	}
	for len(m.Procs) < len(o.Procs) {
		m.Procs = append(m.Procs, ProcMetrics{})
	}
	for i := range o.Procs {
		m.Procs[i].merge(&o.Procs[i])
	}
	for i := range o.hists {
		m.Hists(i).merge(&o.hists[i])
	}
	for i := range o.Vista {
		m.VistaBlock(i).merge(&o.Vista[i])
	}
	m.Steps += o.Steps
	m.TwoPhaseRounds += o.TwoPhaseRounds
	m.SchedUpdates += o.SchedUpdates
	m.SchedRebuilds += o.SchedRebuilds
	m.FaultWindows += o.FaultWindows
	m.FaultCorruptions += o.FaultCorruptions
	m.KernelPanics += o.KernelPanics
	if m.SyscallByName == nil {
		m.SyscallByName = make(map[string]int64)
	}
	for name, c := range o.SyscallByName {
		m.SyscallByName[name] += c
	}
}

// Syscall counts one kernel call for process pid under the given name.
func (m *Metrics) Syscall(pid int, name string) {
	if pid >= 0 && pid < len(m.Procs) {
		m.Procs[pid].Syscalls++
	}
	m.SyscallByName[name]++
}

// writeHist renders one histogram line.
func writeHist(w io.Writer, indent, name string, h *Histogram) {
	fmt.Fprintf(w, "%s%s count=%d sum=%d mean=%d p50=%d p99=%d max=%d\n",
		indent, name, h.Count, h.Sum, h.Mean(), h.Quantile(0.50), h.Quantile(0.99), h.Max)
}

// WriteSnapshot writes a deterministic, human-readable snapshot of every
// counter, gauge and histogram: same counters in, byte-identical snapshot
// out. Field order is fixed and the one map is emitted sorted.
func (m *Metrics) WriteSnapshot(w io.Writer) error {
	fmt.Fprintf(w, "# failtrans metrics snapshot (procs=%d)\n", len(m.Procs))
	fmt.Fprintf(w, "steps %d\n", m.Steps)
	fmt.Fprintf(w, "two_phase_rounds %d\n", m.TwoPhaseRounds)
	fmt.Fprintf(w, "sched_updates %d\n", m.SchedUpdates)
	fmt.Fprintf(w, "sched_rebuilds %d\n", m.SchedRebuilds)
	fmt.Fprintf(w, "fault_windows %d\n", m.FaultWindows)
	fmt.Fprintf(w, "fault_corruptions %d\n", m.FaultCorruptions)
	fmt.Fprintf(w, "kernel_panics %d\n", m.KernelPanics)
	names := make([]string, 0, len(m.SyscallByName))
	for name := range m.SyscallByName {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "syscall %s %d\n", name, m.SyscallByName[name])
	}
	for i := range m.Procs {
		p, h := &m.Procs[i], m.hist(i)
		fmt.Fprintf(w, "proc %d\n", i)
		fmt.Fprintf(w, "  events internal=%d visible=%d send=%d receive=%d commit=%d crash=%d\n",
			p.Events[event.Internal], p.Events[event.Visible], p.Events[event.Send],
			p.Events[event.Receive], p.Events[event.Commit], p.Events[event.Crash])
		fmt.Fprintf(w, "  effectively_nd %d\n", p.EffectivelyND)
		fmt.Fprintf(w, "  logged %d\n", p.Logged)
		fmt.Fprintf(w, "  commits %d bytes=%d pages=%d vetoed=%d\n", p.Commits, p.CommitBytes, p.CommitPages, p.CommitsVetoed)
		writeHist(w, "  ", "commit_latency_ns", &h.CommitLatency)
		writeHist(w, "  ", "commit_size_bytes", &h.CommitSize)
		fmt.Fprintf(w, "  log_forces %d\n", p.LogForces)
		writeHist(w, "  ", "log_force_latency_ns", &h.LogForceLatency)
		fmt.Fprintf(w, "  rollbacks %d rolled_back_events=%d replayed_events=%d\n",
			p.Rollbacks, p.RolledBackEvents, p.ReplayedEvents)
		writeHist(w, "  ", "rollback_depth_events", &h.RollbackDepth)
		fmt.Fprintf(w, "  crashes %d\n", p.Crashes)
		fmt.Fprintf(w, "  syscalls %d\n", p.Syscalls)
		fmt.Fprintf(w, "  inbox_peak %d\n", p.InboxPeak)
	}
	for i := range m.Procs {
		v := &emptyVista
		if i < len(m.Vista) {
			v = &m.Vista[i]
		}
		fmt.Fprintf(w, "vista %d commits=%d rollbacks=%d pages_dirtied=%d undo_bytes=%d hash_hits=%d pages_privatized=%d bytes_cow=%d\n",
			i, v.Commits, v.Rollbacks, v.PagesDirtied, v.UndoBytes, v.HashHits, v.PagesPrivatized, v.BytesCOW)
	}
	return nil
}

// Snapshot returns WriteSnapshot's output as a byte slice.
func (m *Metrics) Snapshot() []byte {
	var b sliceWriter
	m.WriteSnapshot(&b)
	return b
}

type sliceWriter []byte

func (s *sliceWriter) Write(p []byte) (int, error) { *s = append(*s, p...); return len(p), nil }

// RunSummary condenses a registry into the compact per-experiment metrics
// block embedded in machine-readable reports (ftbench -json).
type RunSummary struct {
	Events          int64 `json:"events"`
	EffectivelyND   int64 `json:"effectively_nd"`
	Syscalls        int64 `json:"syscalls"`
	Commits         int64 `json:"commits"`
	CommitBytes     int64 `json:"commit_bytes"`
	CommitP50Ns     int64 `json:"commit_p50_ns"`
	CommitMaxNs     int64 `json:"commit_max_ns"`
	LogForces       int64 `json:"log_forces"`
	Rollbacks       int64 `json:"rollbacks"`
	ReplayedEvents  int64 `json:"replayed_events"`
	TwoPhaseRounds  int64 `json:"two_phase_rounds"`
	VistaPagesDirty int64 `json:"vista_pages_dirtied"`
	VistaHashHits   int64 `json:"vista_hash_hits"`
}

// Summarize rolls the registry up across processes.
func (m *Metrics) Summarize() RunSummary {
	var s RunSummary
	s.TwoPhaseRounds = m.TwoPhaseRounds
	var lat Histogram
	for i := range m.Procs {
		p := &m.Procs[i]
		for _, c := range p.Events {
			s.Events += c
		}
		s.EffectivelyND += p.EffectivelyND
		s.Syscalls += p.Syscalls
		s.Commits += p.Commits
		s.CommitBytes += p.CommitBytes
		s.LogForces += p.LogForces
		s.Rollbacks += p.Rollbacks
		s.ReplayedEvents += p.ReplayedEvents
	}
	for i := range m.hists {
		lat.Merge(&m.hists[i].CommitLatency)
	}
	for i := range m.Vista {
		s.VistaPagesDirty += m.Vista[i].PagesDirtied
		s.VistaHashHits += m.Vista[i].HashHits
	}
	s.CommitP50Ns = lat.Quantile(0.50)
	s.CommitMaxNs = lat.Max
	return s
}
