package sim

import (
	"fmt"

	"failtrans/internal/obs"
)

// ObsSink is implemented by OS layers (notably kernel.Kernel) that accept
// the world's metrics registry and tracer. EnableObs and Init wire the
// world's instances into any OS that implements it, so harnesses never have
// to plumb them by hand.
type ObsSink interface {
	SetObs(m *obs.Metrics, t *obs.Tracer)
}

// EnableObs attaches a fresh metrics registry to the world — and, when
// trace is true, a tracer with one named track per process — and returns
// both (the tracer is nil when trace is false). Each process's event block
// is zeroed and the registry pointed at it, so the registry counts events
// from here on. Call it after NewWorld and before Run; attaching an OS later
// is fine, Init re-wires it.
func (w *World) EnableObs(trace bool) (*obs.Metrics, *obs.Tracer) {
	w.Metrics = obs.NewMetrics(len(w.Procs))
	for i, p := range w.Procs {
		p.events = obs.EventCounts{}
		w.Metrics.Events[i] = &p.events
	}
	if trace {
		w.Tracer = obs.NewTracer()
		for _, p := range w.Procs {
			w.Tracer.SetTrackName(p.Index, fmt.Sprintf("p%d %s", p.Index, p.Prog.Name()))
		}
	}
	w.wireOSObs()
	return w.Metrics, w.Tracer
}

// wireOSObs hands the world's metrics/tracer to an ObsSink OS, if any.
func (w *World) wireOSObs() {
	if o, ok := w.OS.(ObsSink); ok && (w.Metrics != nil || w.Tracer != nil) {
		o.SetObs(w.Metrics, w.Tracer)
	}
}
