package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"failtrans/internal/apps/fleet"
	"failtrans/internal/dc"
	"failtrans/internal/protocol"
	"failtrans/internal/sim"
	"failtrans/internal/stablestore"
)

// This file is the fleet-scale scalability driver: scheduling cost and
// protocol overhead vs fleet size at 10²–10⁵ processes (`ftbench
// -experiment fleet`).

// FleetProtocolMax caps the sizes the seven recoverable protocols are
// measured at. Discount Checking's per-process bookkeeping (vista segments,
// logs) makes 10⁵-proc recoverable runs minutes-long; the baseline curve
// still extends to 10⁵ to show scheduler scaling alone.
const FleetProtocolMax = 10_000

// FleetPoint is one (size, protocol) fleet measurement.
type FleetPoint struct {
	Procs    int    `json:"procs"`
	Protocol string `json:"protocol"` // "NONE" = unrecoverable baseline

	Steps  int   `json:"steps"`
	WallNs int64 `json:"wall_ns"`
	// StepNs is wall nanoseconds per scheduling decision — the number the
	// O(active) claim is measured by.
	StepNs float64 `json:"step_ns"`
	// VirtualUs is the run's virtual duration; protocol overhead at one
	// size is VirtualUs vs the NONE point's.
	VirtualUs    int64 `json:"virtual_us"`
	Checkpoints  int   `json:"checkpoints,omitempty"`
	SchedUpdates int64 `json:"sched_updates,omitempty"`
	// HeapKiBPerProc is the live heap once the run is over and collected,
	// divided by the process count: what a process costs to keep.
	HeapKiBPerProc float64 `json:"heap_kib_per_proc"`
}

// FleetResult is the full sweep.
type FleetResult struct {
	Sizes  []int        `json:"sizes"`
	Points []FleetPoint `json:"points"`
}

// runFleetOnce runs one fleet cell and measures it.
func runFleetOnce(n int, pol *protocol.Policy) (FleetPoint, error) {
	cfg := fleet.Sized(n)
	w := sim.NewWorld(23, fleet.Fleet(cfg)...)
	w.RecordTrace = false
	w.MaxSteps = 100_000_000
	m, _ := w.EnableObs(false)
	name := "NONE"
	var d *dc.DC
	if pol != nil {
		name = pol.Name
		d = dc.New(w, *pol, stablestore.Rio)
		if err := d.Attach(); err != nil {
			return FleetPoint{}, err
		}
	}
	start := time.Now()
	if err := w.Run(); err != nil {
		return FleetPoint{}, err
	}
	wall := time.Since(start)
	if !w.AllDone() {
		return FleetPoint{}, fmt.Errorf("bench: fleet n=%d %s did not finish (%d/%d done)",
			n, name, w.DoneCount(), len(w.Procs))
	}
	pt := FleetPoint{
		Procs:        len(w.Procs),
		Protocol:     name,
		Steps:        w.StepCount(),
		WallNs:       wall.Nanoseconds(),
		VirtualUs:    int64(w.Clock / time.Microsecond),
		SchedUpdates: m.SchedUpdates,
	}
	if pt.Steps > 0 {
		pt.StepNs = float64(pt.WallNs) / float64(pt.Steps)
	}
	if d != nil {
		pt.Checkpoints = d.Stats.TotalCheckpoints()
	}
	pt.HeapKiBPerProc = liveHeapKiBPerProc(w)
	return pt, nil
}

// liveHeapKiBPerProc collects garbage and returns the live heap, in KiB,
// divided by w's process count. w — and the recovery layer and metrics
// registry it holds — is kept alive across the collection.
func liveHeapKiBPerProc(w *sim.World) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(w)
	return float64(ms.HeapAlloc) / 1024 / float64(len(w.Procs))
}

// FleetCurves measures the overhead-vs-fleet-size sweep: for every size the
// unrecoverable baseline, and every measured protocol up to
// FleetProtocolMax.
func FleetCurves(sizes []int) (*FleetResult, error) {
	res := &FleetResult{Sizes: sizes}
	for _, n := range sizes {
		base, err := runFleetOnce(n, nil)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, base)
		if n > FleetProtocolMax {
			continue
		}
		for _, pol := range protocol.Measured() {
			pol := pol
			pt, err := runFleetOnce(n, &pol)
			if err != nil {
				return nil, err
			}
			res.Points = append(res.Points, pt)
		}
	}
	return res, nil
}

// Print renders the sweep.
func (r *FleetResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Fleet scalability (sizes %v):\n", r.Sizes)
	fmt.Fprintf(w, "%8s %-12s %10s %12s %10s %12s %8s %10s\n",
		"procs", "protocol", "steps", "wall", "ns/step", "virtual", "ckpts", "KiB/proc")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%8d %-12s %10d %12s %10.0f %12s %8d %10.2f\n",
			p.Procs, p.Protocol, p.Steps,
			time.Duration(p.WallNs).Round(time.Millisecond),
			p.StepNs, time.Duration(p.VirtualUs)*time.Microsecond, p.Checkpoints, p.HeapKiBPerProc)
	}
}
