package failtrans

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"failtrans/internal/apps/nvi"
	"failtrans/internal/apps/postgres"
	"failtrans/internal/apps/treadmarks"
	"failtrans/internal/dc"
	"failtrans/internal/faults"
	"failtrans/internal/kernel"
	"failtrans/internal/obs"
	"failtrans/internal/protocol"
	"failtrans/internal/recovery"
	"failtrans/internal/sim"
	"failtrans/internal/stablestore"
	"failtrans/internal/vista"
)

// ---- One benchmark per paper figure/table ----

// benchFig8 runs the full Figure 8 sweep for one app and reports the key
// series as custom metrics.
func benchFig8(b *testing.B, app string) {
	var res *Fig8Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = Fig8(app, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		b.ReportMetric(float64(row.Checkpoints), "ckpts:"+row.Protocol)
	}
	if app == "xpilot" {
		for _, row := range res.Rows {
			b.ReportMetric(row.FPSDisk, "fpsDisk:"+row.Protocol)
		}
	} else {
		for _, row := range res.Rows {
			b.ReportMetric(row.OverheadDiskPct, "diskOvhdPct:"+row.Protocol)
		}
	}
}

// BenchmarkFig8Nvi regenerates Figure 8a.
func BenchmarkFig8Nvi(b *testing.B) { benchFig8(b, "nvi") }

// BenchmarkFig8Magic regenerates Figure 8b.
func BenchmarkFig8Magic(b *testing.B) { benchFig8(b, "magic") }

// BenchmarkFig8Xpilot regenerates Figure 8c.
func BenchmarkFig8Xpilot(b *testing.B) { benchFig8(b, "xpilot") }

// BenchmarkFig8TreadMarks regenerates Figure 8d.
func BenchmarkFig8TreadMarks(b *testing.B) { benchFig8(b, "treadmarks") }

// BenchmarkTable1 regenerates the application fault study (reduced crash
// target per iteration; run cmd/ftbench for the paper-scale version).
func BenchmarkTable1(b *testing.B) {
	var res *Table1Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = Table1(5)
		if err != nil {
			b.Fatal(err)
		}
	}
	for i, tr := range res.Nvi {
		kind := strings.ReplaceAll(tr.Kind.String(), " ", "-")
		b.ReportMetric(tr.ViolationPct(), "nviViolPct:"+kind)
		b.ReportMetric(res.Postgres[i].ViolationPct(), "pgViolPct:"+kind)
	}
}

// BenchmarkTable2 regenerates the OS fault study (reduced crash target).
func BenchmarkTable2(b *testing.B) {
	var res *Table2Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = Table2(4)
		if err != nil {
			b.Fatal(err)
		}
	}
	nv, pg := 0.0, 0.0
	for i, tr := range res.Nvi {
		nv += tr.FailurePct()
		pg += res.Postgres[i].FailurePct()
	}
	b.ReportMetric(nv/float64(len(res.Nvi)), "nviFailPct")
	b.ReportMetric(pg/float64(len(res.Postgres)), "pgFailPct")
}

// ---- Ablation benches for DESIGN.md's design choices ----

// nviCell runs one (protocol, medium) nvi cell and returns duration stats.
func nviCell(b *testing.B, pol protocol.Policy, medium stablestore.Medium, pageSize int) (time.Duration, *dc.DC) {
	b.Helper()
	e := nvi.New("doc.txt", faults.NviInitial())
	e.ThinkTime = 100 * time.Millisecond
	w := sim.NewWorld(11, e)
	k := kernel.New()
	k.Clock = func() time.Duration { return w.Clock }
	w.OS = k
	w.Procs[0].Ctx().Inputs = nvi.Script(faults.NviSession(11, 300))
	w.RecordTrace = false
	d := dc.New(w, pol, medium)
	if pageSize > 0 {
		d.PageSize = pageSize
	}
	if err := d.Attach(); err != nil {
		b.Fatal(err)
	}
	if err := w.Run(); err != nil {
		b.Fatal(err)
	}
	return w.Clock, d
}

// BenchmarkAblationMediumRio vs ...Disk: the DC vs DC-disk column pair.
func BenchmarkAblationMediumRio(b *testing.B) {
	var t time.Duration
	for i := 0; i < b.N; i++ {
		t, _ = nviCell(b, protocol.CPVS, stablestore.Rio, 0)
	}
	b.ReportMetric(t.Seconds(), "virtualSec")
}

func BenchmarkAblationMediumDisk(b *testing.B) {
	var t time.Duration
	for i := 0; i < b.N; i++ {
		t, _ = nviCell(b, protocol.CPVS, stablestore.Disk, 0)
	}
	b.ReportMetric(t.Seconds(), "virtualSec")
}

// BenchmarkAblationLogging sweeps the logging scope: none (CAND), input +
// receives (CAND-LOG), everything (Hypervisor).
func BenchmarkAblationLogging(b *testing.B) {
	for _, pol := range []protocol.Policy{protocol.CAND, protocol.CANDLog, protocol.Hypervisor} {
		b.Run(pol.Name, func(b *testing.B) {
			var d *dc.DC
			for i := 0; i < b.N; i++ {
				_, d = nviCell(b, pol, stablestore.Disk, 0)
			}
			b.ReportMetric(float64(d.Stats.TotalCheckpoints()), "ckpts")
			b.ReportMetric(float64(d.Stats.LogRecords), "logRecords")
		})
	}
}

// BenchmarkAblation2PCScope compares committing all processes vs only
// causally dependent ones on the DSM workload.
func BenchmarkAblation2PCScope(b *testing.B) {
	run := func(b *testing.B, pol protocol.Policy) {
		var d *dc.DC
		for i := 0; i < b.N; i++ {
			// Ten iterations so progress reports (visible events)
			// actually occur and trigger coordinated commits.
			progs, err := treadmarks.Fleet(4, 72, 10)
			if err != nil {
				b.Fatal(err)
			}
			w := sim.NewWorld(3, progs...)
			w.RecordTrace = false
			w.MaxSteps = 10_000_000
			d = dc.New(w, pol, stablestore.Rio)
			if err := d.Attach(); err != nil {
				b.Fatal(err)
			}
			if err := w.Run(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(d.Stats.TotalCheckpoints()), "ckpts")
		b.ReportMetric(float64(d.Stats.TwoPhaseRounds), "2pcRounds")
	}
	b.Run("AllProcesses", func(b *testing.B) { run(b, protocol.CPV2PC) })
	b.Run("DependentOnly", func(b *testing.B) { run(b, protocol.CBNDV2PC) })
}

// BenchmarkAblationPageSize sweeps the Vista trap granularity: small pages
// log less per commit but cost more bookkeeping.
func BenchmarkAblationPageSize(b *testing.B) {
	for _, ps := range []int{512, 4096, 16384} {
		b.Run(fmt.Sprintf("%dB", ps), func(b *testing.B) {
			var d *dc.DC
			for i := 0; i < b.N; i++ {
				_, d = nviCell(b, protocol.CPVS, stablestore.Disk, ps)
			}
			b.ReportMetric(float64(d.Stats.CommitBytes)/float64(d.Stats.TotalCheckpoints()), "bytes/ckpt")
		})
	}
}

// BenchmarkAblationCheckFrequency measures how consistency-check frequency
// changes fault-detection latency (§2.6: crash sooner to shorten dangerous
// paths).
func BenchmarkAblationCheckFrequency(b *testing.B) {
	for _, every := range []int{10, 50, 200} {
		b.Run(fmt.Sprintf("every%d", every), func(b *testing.B) {
			latency := 0
			for i := 0; i < b.N; i++ {
				e := nvi.New("doc.txt", faults.NviInitial())
				e.ThinkTime = 0
				e.CheckEvery = every
				w := sim.NewWorld(11, e)
				k := kernel.New()
				k.Clock = func() time.Duration { return w.Clock }
				w.OS = k
				w.Procs[0].Ctx().Inputs = nvi.Script(faults.NviSession(11, 600))
				w.RecordTrace = false
				inj := &heapFlipAt{at: 30}
				w.Faults = inj
				if err := w.Run(); err != nil {
					b.Fatal(err)
				}
				if w.Procs[0].Crashes > 0 {
					latency = w.Procs[0].Steps - inj.firedAt
				}
			}
			b.ReportMetric(float64(latency), "eventsToDetect")
		})
	}
}

type heapFlipAt struct {
	at      int
	visits  int
	firedAt int
}

func (h *heapFlipAt) At(p *sim.Proc, site string) sim.FaultKind {
	if h.firedAt > 0 || site != "nvi.key" {
		return sim.NoFault
	}
	h.visits++
	if h.visits < h.at {
		return sim.NoFault
	}
	h.firedAt = p.Steps
	return sim.HeapBitFlip
}

// ---- Microbenchmarks of the hot substrate paths ----

// BenchmarkVistaCommit measures a Vista commit of a 64 KB image with one
// dirty page through SetContents and Commit, with the observability metrics
// slot attached (the instrumented path must stay at 0 allocs/op).
func BenchmarkVistaCommit(b *testing.B) {
	seg := vista.NewSegment(0, 4096)
	seg.Metrics = &obs.VistaMetrics{}
	img := make([]byte, 64*1024)
	seg.SetContents(img)
	seg.Commit(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img[(i*4096+17)%len(img)] ^= 1
		seg.SetContents(img)
		seg.Commit(nil)
	}
}

// BenchmarkBTreeInsert measures index insertion.
func BenchmarkBTreeInsert(b *testing.B) {
	bt := postgres.NewBTree()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt.Put(int64(i*2654435761%1000003), postgres.RID{Page: uint32(i)})
	}
}

// BenchmarkOctreeForce measures one Barnes-Hut force evaluation over 512
// bodies.
func BenchmarkOctreeForce(b *testing.B) {
	bodies := treadmarks.InitBodies(512)
	tree := new(treadmarks.Octree).Build(bodies)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Force(bodies[i%len(bodies)])
	}
}

// BenchmarkSaveWorkChecker measures the invariant checker on a 200-event
// disciplined trace.
func BenchmarkSaveWorkChecker(b *testing.B) {
	tr := NewTrace(3)
	var msg int64
	for i := 0; i < 60; i++ {
		p := i % 3
		tr.MustAppend(Event{ID: EventID{P: p, I: -1}, Kind: Internal, ND: TransientND})
		tr.MustAppend(Event{ID: EventID{P: p, I: -1}, Kind: Commit})
		msg++
		tr.MustAppend(Event{ID: EventID{P: p, I: -1}, Kind: Send, Msg: msg, Peer: (p + 1) % 3})
		tr.MustAppend(Event{ID: EventID{P: (p + 1) % 3, I: -1}, Kind: Receive, Msg: msg, Peer: p, ND: TransientND})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vs := recovery.CheckSaveWork(tr); len(vs) != 0 {
			b.Fatal("unexpected violations")
		}
	}
}

// BenchmarkDCCommit measures one full Discount Checking commit of the nvi
// editor state (marshal + page diff + commit bookkeeping), with the
// observability metrics registry attached (must stay at 0 allocs/op).
func BenchmarkDCCommit(b *testing.B) {
	e := nvi.New("doc.txt", faults.NviInitial())
	w := sim.NewWorld(1, e)
	w.EnableObs(false)
	d := dc.New(w, protocol.CPVS, stablestore.Rio)
	if err := d.Attach(); err != nil {
		b.Fatal(err)
	}
	p := w.Procs[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Checkpoint(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDCRollback measures a rollback + state reload, with the
// observability metrics registry attached.
func BenchmarkDCRollback(b *testing.B) {
	e := nvi.New("doc.txt", faults.NviInitial())
	w := sim.NewWorld(1, e)
	w.EnableObs(false)
	d := dc.New(w, protocol.CPVS, stablestore.Rio)
	if err := d.Attach(); err != nil {
		b.Fatal(err)
	}
	p := w.Procs[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Rollback(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCheckBeforeCommit measures the §2.6 mitigation: running
// the application's consistency check before every commit reduces how often
// Save-work commits violate Lose-work.
func BenchmarkAblationCheckBeforeCommit(b *testing.B) {
	for _, mitigate := range []bool{false, true} {
		name := "off"
		if mitigate {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var viol, crashes int
			for i := 0; i < b.N; i++ {
				s := faults.NewAppStudy("nvi")
				s.CrashTarget = 6
				s.MaxRunsPerType = 40
				s.SessionLen = 200
				s.CheckBeforeCommit = mitigate
				rs, err := s.Run()
				if err != nil {
					b.Fatal(err)
				}
				viol, crashes = 0, 0
				for _, tr := range rs {
					viol += tr.Violations
					crashes += tr.Crashes
				}
			}
			if crashes > 0 {
				b.ReportMetric(100*float64(viol)/float64(crashes), "violationPct")
			}
		})
	}
}

// BenchmarkAblationEssentialCommits compares full-state vs essential-only
// checkpoint sizes (§2.6's "reduce the comprehensiveness of the state
// saved").
func BenchmarkAblationEssentialCommits(b *testing.B) {
	for _, essential := range []bool{false, true} {
		name := "full"
		if essential {
			name = "essential"
		}
		b.Run(name, func(b *testing.B) {
			var d *dc.DC
			for i := 0; i < b.N; i++ {
				e := nvi.New("doc.txt", faults.NviInitial())
				e.ThinkTime = 0
				w := sim.NewWorld(11, e)
				k := kernel.New()
				k.Clock = func() time.Duration { return w.Clock }
				w.OS = k
				w.Procs[0].Ctx().Inputs = nvi.Script(faults.NviSession(11, 300))
				w.RecordTrace = false
				d = dc.New(w, protocol.CPVS, stablestore.Rio)
				d.EssentialOnly = essential
				if err := d.Attach(); err != nil {
					b.Fatal(err)
				}
				if err := w.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(d.Stats.CommitBytes)/float64(d.Stats.TotalCheckpoints()), "bytes/ckpt")
		})
	}
}
