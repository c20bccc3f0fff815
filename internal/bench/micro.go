package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"testing"

	"failtrans/internal/apps/nvi"
	"failtrans/internal/dc"
	"failtrans/internal/faults"
	"failtrans/internal/obs"
	"failtrans/internal/protocol"
	"failtrans/internal/sim"
	"failtrans/internal/stablestore"
	"failtrans/internal/vista"
)

// MicroResult is one commit-path microbenchmark measurement.
type MicroResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations,omitempty"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// MediumInfo records a stable-storage cost model alongside the numbers
// that were measured under it.
type MediumInfo struct {
	Name        string `json:"name"`
	PerCommitNs int64  `json:"per_commit_ns"`
	PerByteNs   int64  `json:"per_byte_ns"`
	PerLogNs    int64  `json:"per_log_ns"`
}

func mediumInfo(m stablestore.Medium) MediumInfo {
	return MediumInfo{
		Name:        m.Name,
		PerCommitNs: m.PerCommit.Nanoseconds(),
		PerByteNs:   m.PerByte.Nanoseconds(),
		PerLogNs:    m.PerLog.Nanoseconds(),
	}
}

// Fig8BenchRow is one protocol's Figure 8 cell in the bench report:
// checkpoint count and virtual-time overhead on both media.
type Fig8BenchRow struct {
	Protocol        string  `json:"protocol"`
	Coordinated     bool    `json:"coordinated"`
	Checkpoints     int     `json:"checkpoints"`
	LogRecords      int64   `json:"log_records"`
	OverheadRioPct  float64 `json:"overhead_rio_pct"`
	OverheadDiskPct float64 `json:"overhead_disk_pct"`
	// Metrics is the observability-layer summary of the DC (Rio) run.
	Metrics obs.RunSummary `json:"metrics"`
}

// Fig8Summary is one application's protocol sweep in the bench report.
type Fig8Summary struct {
	App                string         `json:"app"`
	BaselineVirtualSec float64        `json:"baseline_virtual_sec"`
	Rows               []Fig8BenchRow `json:"rows"`
}

// BenchReport is the machine-readable output of `ftbench -bench`: the
// commit-path microbenchmarks plus the Figure 8 drivers, with the media
// cost models they were measured under.
type BenchReport struct {
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	Scale  int    `json:"scale"`

	Media []MediumInfo `json:"media"`
	// Micro holds the microbenchmark suite measured by this run.
	Micro []MicroResult `json:"micro"`
	// CampaignCOW compares a reduced fault campaign from scratch vs served
	// from copy-on-write forks of sealed snapshots.
	CampaignCOW CampaignCOWResult `json:"campaign_cow"`
	Fig8        []Fig8Summary     `json:"fig8"`
	// Fleet is the scheduler/protocol scalability sweep (see fleet.go);
	// its NONE rows carry the fleet_step_ns CI regression gates.
	Fleet *FleetResult `json:"fleet,omitempty"`
}

// runMicro executes one benchmark body under the testing harness.
func runMicro(name string, body func(b *testing.B)) MicroResult {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		body(b)
	})
	ns := 0.0
	if r.N > 0 {
		ns = float64(r.T.Nanoseconds()) / float64(r.N)
	}
	return MicroResult{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     ns,
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// benchVistaCommit measures a Vista commit of a 64 KB image with one dirty
// page per iteration, through the entry Discount Checking commits through
// (steady state: zero allocations). The metrics slot is attached to prove
// instrumentation keeps the path allocation-free.
func benchVistaCommit(b *testing.B) {
	seg := vista.NewSegment(0, 4096)
	seg.Metrics = &obs.VistaMetrics{}
	img := make([]byte, 64*1024)
	seg.CommitImage(img, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img[(i*4096+17)%len(img)] ^= 1
		seg.CommitImage(img, nil)
	}
}

func benchNviDC(b *testing.B) (*dc.DC, *sim.Proc) {
	e := nvi.New("doc.txt", faults.NviInitial())
	w := sim.NewWorld(1, e)
	// Metrics stay attached while measuring: the commit path must remain
	// allocation-free with instrumentation enabled.
	w.EnableObs(false)
	d := dc.New(w, protocol.CPVS, stablestore.Rio)
	if err := d.Attach(); err != nil {
		b.Fatal(err)
	}
	return d, w.Procs[0]
}

// benchDCCommit measures one full Discount Checking commit of the nvi
// editor state: marshal + page diff + commit bookkeeping.
func benchDCCommit(b *testing.B) {
	d, p := benchNviDC(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Checkpoint(p); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDCRollback measures a rollback + state reload.
func benchDCRollback(b *testing.B) {
	d, p := benchNviDC(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Rollback(p); err != nil {
			b.Fatal(err)
		}
	}
}

// RunBench runs the commit microbenchmarks and the Figure 8 drivers and
// assembles the combined report. workers parallelizes the Figure 8 cells
// (the microbenchmarks always run alone, so their timings stay honest).
func RunBench(scale, workers int) (*BenchReport, error) {
	rep := &BenchReport{
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		Scale:  scale,
		Media:  []MediumInfo{mediumInfo(stablestore.Rio), mediumInfo(stablestore.Disk)},
	}
	rep.Micro = []MicroResult{
		runMicro("VistaCommit", benchVistaCommit),
		runMicro("DCCommit", benchDCCommit),
		runMicro("DCRollback", benchDCRollback),
		runMicro("SchedUpdate", benchSchedUpdate),
		runMicro("FleetStep", benchFleetStep),
	}
	cc, err := benchCampaignCOW(scale)
	if err != nil {
		return nil, err
	}
	rep.CampaignCOW = cc
	fl, err := FleetCurves(FleetSizesForScale(scale))
	if err != nil {
		return nil, err
	}
	rep.Fleet = fl
	for _, app := range Fig8Apps {
		res, err := Fig8(app, scale, workers, nil)
		if err != nil {
			return nil, err
		}
		sum := Fig8Summary{App: app, BaselineVirtualSec: res.Baseline.Seconds()}
		for _, row := range res.Rows {
			pol, err := protocol.ByName(row.Protocol)
			if err != nil {
				return nil, err
			}
			sum.Rows = append(sum.Rows, Fig8BenchRow{
				Protocol:        row.Protocol,
				Coordinated:     pol.Coordinated(),
				Checkpoints:     row.Checkpoints,
				LogRecords:      row.LogRecords,
				OverheadRioPct:  row.OverheadRioPct,
				OverheadDiskPct: row.OverheadDiskPct,
				Metrics:         row.Metrics,
			})
		}
		rep.Fig8 = append(rep.Fig8, sum)
	}
	return rep, nil
}

// WriteJSON writes the report as indented JSON.
func (r *BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Print renders the report for a terminal.
func (r *BenchReport) Print(w io.Writer) {
	fmt.Fprintf(w, "Commit-path microbenchmarks (%s/%s):\n", r.GOOS, r.GOARCH)
	fmt.Fprintf(w, "%-12s %12s %10s %10s\n", "benchmark", "ns/op", "B/op", "allocs/op")
	for _, m := range r.Micro {
		fmt.Fprintf(w, "%-12s %12.0f %10d %10d\n", m.Name, m.NsPerOp, m.BytesPerOp, m.AllocsPerOp)
	}
	cc := r.CampaignCOW
	fmt.Fprintf(w, "\nCampaign snapshot + COW forking (%s, %d runs):\n", cc.App, cc.Runs)
	fmt.Fprintf(w, "%-14s %14s %14s %10s\n", "", "from-scratch", "cow", "ratio")
	fmt.Fprintf(w, "%-14s %14.0f %14.0f %9.1fx\n", "ns/run",
		cc.ScratchNsPerRun, cc.COWNsPerRun, cc.SpeedupX)
	fmt.Fprintf(w, "%-14s %14.1f %14.1f %9.1fx\n", "steps replayed",
		cc.ScratchStepsReplayedPerRun, cc.COWStepsReplayedPerRun, cc.ReplayReductionX)
	fmt.Fprintf(w, "%-14s %14s %14d\n", "fork ns", "-", cc.COWForkMeanNs)
	fmt.Fprintf(w, "%-14s pages-privatized=%d bytes-cow=%d\n", "", cc.PagesPrivatized, cc.BytesCOW)
	for _, f := range r.Fig8 {
		fmt.Fprintf(w, "\nFigure 8 (%s): baseline %.2fs virtual\n", f.App, f.BaselineVirtualSec)
		fmt.Fprintf(w, "%-12s %8s %8s %10s %10s\n", "protocol", "ckpts", "logrecs", "DC ovhd", "disk ovhd")
		for _, row := range f.Rows {
			fmt.Fprintf(w, "%-12s %8d %8d %9.1f%% %9.1f%%\n",
				row.Protocol, row.Checkpoints, row.LogRecords, row.OverheadRioPct, row.OverheadDiskPct)
		}
	}
}
