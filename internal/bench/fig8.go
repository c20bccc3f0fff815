// Package bench regenerates every table and figure of the paper's
// evaluation: Figure 8's protocol-space performance plots for nvi, magic,
// xpilot and TreadMarks (checkpoints and runtime overhead under Discount
// Checking on reliable memory and on disk), Table 1's application-fault
// study, Table 2's OS-fault study, and the Figure 3 protocol-space map.
package bench

import (
	"fmt"
	"io"
	"time"

	"failtrans/internal/apps/magic"
	"failtrans/internal/apps/nvi"
	"failtrans/internal/apps/treadmarks"
	"failtrans/internal/apps/xpilot"
	"failtrans/internal/campaign"
	"failtrans/internal/dc"
	"failtrans/internal/faults"
	"failtrans/internal/kernel"
	"failtrans/internal/obs"
	"failtrans/internal/obs/ledger"
	"failtrans/internal/protocol"
	"failtrans/internal/sim"
	"failtrans/internal/stablestore"
)

// Fig8Apps lists the four workloads of Figure 8.
var Fig8Apps = []string{"nvi", "magic", "xpilot", "treadmarks"}

// Fig8Row is one protocol's measurement for one application.
type Fig8Row struct {
	Protocol    string
	Checkpoints int
	// Interactive apps: percent runtime expansion vs the unrecoverable
	// baseline, for DC (Rio) and DC-disk.
	OverheadRioPct  float64
	OverheadDiskPct float64
	// xpilot only: checkpoints/second and sustained frames/second.
	CkptsPerSec float64
	FPSRio      float64
	FPSDisk     float64
	LogRecords  int64
	// Metrics is the observability-layer summary of the DC (Rio) run.
	Metrics obs.RunSummary
}

// Fig8Result is one application's protocol-space sweep.
type Fig8Result struct {
	App      string
	Baseline time.Duration
	Rows     []Fig8Row
}

// BuildWorld builds the measured workload for one app at the given scale
// (1 = quick, larger = longer sessions closer to the paper's).
func BuildWorld(app string, scale int, seed int64) (*sim.World, error) {
	if scale < 1 {
		scale = 1
	}
	switch app {
	case "nvi":
		e := nvi.New("doc.txt", faults.NviInitial())
		e.ThinkTime = 100 * time.Millisecond // the paper's keystroke pacing
		w := sim.NewWorld(seed, e)
		k := kernel.New()
		k.Clock = func() time.Duration { return w.Clock }
		w.OS = k
		w.Procs[0].Ctx().Inputs = nvi.Script(faults.NviSession(seed, 400*scale))
		return w, nil
	case "magic":
		l := magic.New("m1", "m2", "poly")
		l.ThinkTime = time.Second // one command per second, as measured
		w := sim.NewWorld(seed, l)
		k := kernel.New()
		k.Clock = func() time.Duration { return w.Clock }
		w.OS = k
		w.Procs[0].Ctx().Inputs = magic.Script(MagicSession(seed, 60*scale))
		return w, nil
	case "xpilot":
		w := sim.NewWorld(seed, xpilot.Fleet(75*scale)...)
		k := kernel.New()
		k.Clock = func() time.Duration { return w.Clock }
		w.OS = k
		for i := 1; i <= 3; i++ {
			w.Procs[i].Ctx().Inputs = xpilot.KeyScript(repeatKeys("wad w d ", 40*scale))
		}
		w.MaxSteps = 40_000_000
		return w, nil
	case "treadmarks":
		// At least 5 iterations so the every-5th-iteration progress
		// report (the workload's only visible event) occurs even at
		// scale 1.
		iters := 4 * scale
		if iters < 5 {
			iters = 5
		}
		progs, err := treadmarks.Fleet(4, 72, iters)
		if err != nil {
			return nil, err
		}
		w := sim.NewWorld(seed, progs...)
		w.MaxSteps = 40_000_000
		return w, nil
	default:
		return nil, fmt.Errorf("bench: unknown app %q", app)
	}
}

func repeatKeys(pattern string, n int) string {
	out := make([]byte, 0, n)
	for len(out) < n {
		out = append(out, pattern...)
	}
	return string(out[:n])
}

// MagicSession generates the layout-editing command session.
func MagicSession(seed int64, n int) []string {
	var out []string
	x, y := 0, 0
	for i := 0; len(out) < n; i++ {
		layer := []string{"m1", "m2", "poly"}[i%3]
		switch i % 7 {
		case 0, 1, 2:
			out = append(out, fmt.Sprintf("paint %s %d %d %d %d", layer, x%400, y%300, 8+i%20, 6+i%12))
			x += 37
			y += 23
		case 3:
			out = append(out, fmt.Sprintf("erase %s %d %d %d %d", layer, (x+11)%400, (y+7)%300, 10, 8))
		case 4:
			out = append(out, fmt.Sprintf("box %s 0 0 200 150", layer))
		case 5:
			out = append(out, fmt.Sprintf("area %s", layer))
		default:
			out = append(out, fmt.Sprintf("drc %s", layer))
		}
	}
	out = append(out, "quit")
	return out
}

// onceResult is one (app, protocol, medium) cell's measurements.
type onceResult struct {
	clock     time.Duration
	ckpts     int
	logs      int64
	frames    int
	steps     int // world step count (deterministic, fork-invariant)
	procSteps int // proc 0's step count
	metrics   obs.RunSummary
}

// runOnce executes one (app, protocol, medium) cell with the metrics
// registry attached and returns virtual duration, checkpoint count, log
// records, client frames (xpilot), and the metrics summary.
func runOnce(app string, scale int, pol *protocol.Policy, medium stablestore.Medium) (onceResult, error) {
	w, err := BuildWorld(app, scale, 11)
	if err != nil {
		return onceResult{}, err
	}
	w.RecordTrace = false
	m, _ := w.EnableObs(false)
	var d *dc.DC
	if pol != nil {
		d = dc.New(w, *pol, medium)
		if err := d.Attach(); err != nil {
			return onceResult{}, err
		}
	}
	if err := w.Run(); err != nil {
		return onceResult{}, err
	}
	res := onceResult{clock: w.Clock, steps: w.StepCount(), procSteps: w.Procs[0].Steps, metrics: m.Summarize()}
	if d != nil {
		res.ckpts = d.Stats.TotalCheckpoints()
		res.logs = d.Stats.LogRecords
	}
	if app == "xpilot" {
		res.frames = len(w.Outputs[1])
	}
	return res, nil
}

// Fig8 runs the full protocol sweep for one application. The baseline and
// the (protocol, medium) cells are independent simulations, so they fan
// out over workers (0 or 1 = serial); every cell lands at a fixed slice
// index, making the result identical to the serial sweep's. lw, if
// non-nil, receives one fault-free ledger record per cell, emitted from the
// ordered acceptor (so the ledger bytes are worker-count-invariant too).
func Fig8(app string, scale, workers int, lw *ledger.Writer) (*Fig8Result, error) {
	measured := protocol.Measured()
	cells := make([]onceResult, 1+2*len(measured))
	err := campaign.Run(campaign.Config{Workers: workers}, len(cells),
		func(i int) (onceResult, error) {
			if i == 0 {
				return runOnce(app, scale, nil, stablestore.Rio) // unrecoverable baseline
			}
			pol := measured[(i-1)/2]
			medium := stablestore.Rio
			if (i-1)%2 == 1 {
				medium = stablestore.Disk
			}
			return runOnce(app, scale, &pol, medium)
		},
		func(i int, r onceResult) bool {
			cells[i] = r
			if lw != nil {
				rec := ledger.Get()
				rec.Run = i
				rec.Study = "fig8"
				rec.App = app
				rec.Protocol = "baseline"
				rec.Medium = stablestore.Rio.Name
				if i > 0 {
					rec.Protocol = measured[(i-1)/2].Name
					if (i-1)%2 == 1 {
						rec.Medium = stablestore.Disk.Name
					}
				}
				rec.Kind = "none"
				rec.Seed = 11
				rec.Outcome = ledger.Completed
				rec.CommitN = r.ckpts
				rec.Steps = r.procSteps
				rec.WorldSteps = r.steps
				rec.VClockUS = int64(r.clock / time.Microsecond)
				lw.Append(rec)
				ledger.Put(rec)
			}
			return true
		})
	if err != nil {
		return nil, err
	}
	base := cells[0]
	res := &Fig8Result{App: app, Baseline: base.clock}
	for i := range measured {
		pol := measured[i]
		rio, disk := cells[1+2*i], cells[2+2*i]
		row := Fig8Row{
			Protocol:        pol.Name,
			Checkpoints:     rio.ckpts,
			LogRecords:      rio.logs,
			OverheadRioPct:  100 * (rio.clock.Seconds() - base.clock.Seconds()) / base.clock.Seconds(),
			OverheadDiskPct: 100 * (disk.clock.Seconds() - base.clock.Seconds()) / base.clock.Seconds(),
			Metrics:         rio.metrics,
		}
		if app == "xpilot" {
			row.CkptsPerSec = float64(rio.ckpts) / rio.clock.Seconds()
			row.FPSRio = float64(rio.frames) / rio.clock.Seconds()
			row.FPSDisk = float64(disk.frames) / disk.clock.Seconds()
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Print renders the result in the paper's style.
func (r *Fig8Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 8 (%s): baseline %.2fs virtual\n", r.App, r.Baseline.Seconds())
	if r.App == "xpilot" {
		fmt.Fprintf(w, "%-12s %10s %8s %8s\n", "protocol", "ckpts/s", "fps(DC)", "fps(dsk)")
		for _, row := range r.Rows {
			fmt.Fprintf(w, "%-12s %10.1f %8.1f %8.1f\n", row.Protocol, row.CkptsPerSec, row.FPSRio, row.FPSDisk)
		}
		return
	}
	fmt.Fprintf(w, "%-12s %8s %8s %10s %10s\n", "protocol", "ckpts", "logrecs", "DC ovhd", "disk ovhd")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-12s %8d %8d %9.1f%% %9.1f%%\n",
			row.Protocol, row.Checkpoints, row.LogRecords, row.OverheadRioPct, row.OverheadDiskPct)
	}
}
