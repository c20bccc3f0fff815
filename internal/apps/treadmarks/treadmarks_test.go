package treadmarks

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"failtrans/internal/dc"
	"failtrans/internal/event"
	"failtrans/internal/protocol"
	"failtrans/internal/sim"
	"failtrans/internal/stablestore"
)

func TestBodyCodecRoundTrip(t *testing.T) {
	b := Body{1.5, -2.25, 3, 0.125, -7, 42, 1.001}
	buf := make([]byte, BodySize)
	EncodeBody(buf, b)
	if got := DecodeBody(buf); got != b {
		t.Errorf("round trip = %+v", got)
	}
}

func TestOctreeCountAndMass(t *testing.T) {
	bodies := InitBodies(100)
	tree := new(Octree).Build(bodies)
	if got := tree.Count(); got != 100 {
		t.Errorf("Count = %d, want 100", got)
	}
	var mass float64
	for _, b := range bodies {
		mass += b.Mass
	}
	if math.Abs(tree.Mass-mass) > 1e-9 {
		t.Errorf("tree mass %f != %f", tree.Mass, mass)
	}
}

func TestOctreeForceSymmetryTwoBodies(t *testing.T) {
	a := Body{X: 0, Mass: 1}
	b := Body{X: 2, Mass: 1}
	tree := new(Octree).Build([]Body{a, b})
	ax, _, _ := tree.Force(a)
	bx, _, _ := tree.Force(b)
	if ax <= 0 || bx >= 0 {
		t.Errorf("forces should attract: a %.4f, b %.4f", ax, bx)
	}
	if math.Abs(ax+bx) > 1e-9 {
		t.Errorf("two-body forces should be equal and opposite: %f vs %f", ax, bx)
	}
}

func TestForceApproximatesDirectSum(t *testing.T) {
	bodies := InitBodies(200)
	tree := new(Octree).Build(bodies)
	// Compare the tree force on a body against the exact direct sum.
	target := bodies[17]
	var ex, ey, ez float64
	for i, o := range bodies {
		if i == 17 {
			continue
		}
		dx, dy, dz := o.X-target.X, o.Y-target.Y, o.Z-target.Z
		d2 := dx*dx + dy*dy + dz*dz + soften*soften
		d := math.Sqrt(d2)
		f := gravity * o.Mass / (d2 * d)
		ex += f * dx
		ey += f * dy
		ez += f * dz
	}
	ax, ay, az := tree.Force(target)
	mag := math.Sqrt(ex*ex + ey*ey + ez*ez)
	err := math.Sqrt((ax-ex)*(ax-ex) + (ay-ey)*(ay-ey) + (az-ez)*(az-ez))
	if err/mag > 0.05 {
		t.Errorf("tree force off by %.1f%% from direct sum", 100*err/mag)
	}
}

// TestStepBodiesRecyclesTree pins the octree arena: a TM's second and later
// compute phases allocate no tree node (and no Updated slice), and a tree
// built in a reused arena — one that last held a larger tree — integrates
// the bodies bit for bit as a fresh arena does.
func TestStepBodiesRecyclesTree(t *testing.T) {
	tm, err := New(1, 4, 72, 1)
	if err != nil {
		t.Fatal(err)
	}
	tm.Bodies = InitBodies(72)
	tm.tree.Build(InitBodies(200)) // leaves stale nodes past the 72-body tree
	tm.stepBodies()
	want := new(Octree).step(tm.Bodies, tm.Lo, tm.Hi, nil)
	if !slices.Equal(tm.Updated, want) {
		t.Fatalf("reused arena integrated %v, fresh arena %v", tm.Updated, want)
	}
	if n := testing.AllocsPerRun(50, tm.stepBodies); n != 0 {
		t.Errorf("stepBodies allocates %.0f times after the first, want 0", n)
	}
	for i, b := range tm.Updated {
		if b != want[i] {
			t.Fatalf("body %d = %+v after repeated steps, want %+v", tm.Lo+i, b, want[i])
		}
	}
}

func TestEnergyRoughlyConserved(t *testing.T) {
	bodies := InitBodies(64)
	e0 := TotalEnergy(bodies)
	for it := 0; it < 10; it++ {
		copy(bodies, new(Octree).step(bodies, 0, len(bodies), nil))
	}
	e1 := TotalEnergy(bodies)
	if math.Abs(e1-e0) > 0.2*math.Abs(e0) {
		t.Errorf("energy drifted %f -> %f", e0, e1)
	}
}

// --- DSM tests ---

func runFleet(t *testing.T, nbodies, iters int, seed int64) (*sim.World, []*TM) {
	t.Helper()
	progs, err := Fleet(4, nbodies, iters)
	if err != nil {
		t.Fatal(err)
	}
	w := sim.NewWorld(seed, progs...)
	w.MaxSteps = 5_000_000
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	tms := make([]*TM, 4)
	for i := range tms {
		tms[i] = w.Procs[i].Prog.(*TM)
	}
	return w, tms
}

// TestDSMMatchesSequentialOracle is the core correctness test: the
// four-process DSM run produces bit-identical physics to the sequential
// oracle.
func TestDSMMatchesSequentialOracle(t *testing.T) {
	const nbodies, iters = 72, 5
	w, tms := runFleet(t, nbodies, iters, 3)
	if !w.AllDone() {
		for _, p := range w.Procs {
			t.Logf("%s: %v", p.Prog.Name(), p.Status())
		}
		t.Fatal("fleet did not finish")
	}
	oracle := SequentialOracle(nbodies, iters)
	for pi, tm := range tms {
		final := tm.FinalBodies()
		for i, b := range final {
			want := oracle[tm.Lo+i]
			if b != want {
				t.Fatalf("proc %d body %d = %+v, want %+v", pi, tm.Lo+i, b, want)
			}
		}
	}
	// The DSM generated real traffic.
	var faults int64
	for _, tm := range tms {
		faults += tm.DSM.Faults
	}
	if faults < int64(iters)*4 {
		t.Errorf("only %d page faults; DSM traffic looks wrong", faults)
	}
}

func TestDSMEventShape(t *testing.T) {
	w, _ := runFleet(t, 72, 3, 9)
	var sends, recvs, visibles int
	for _, e := range w.Trace.Events {
		switch e.Kind {
		case event.Send:
			sends++
		case event.Receive:
			recvs++
		case event.Visible:
			visibles++
		}
	}
	// Copious messaging, almost no visible output — the paper's
	// characterization of TreadMarks.
	if sends < 100 || recvs < 100 {
		t.Errorf("sends=%d recvs=%d; expected copious messaging", sends, recvs)
	}
	if visibles > 3 {
		t.Errorf("visibles=%d; expected almost none", visibles)
	}
	if sends != recvs {
		t.Errorf("sends %d != recvs %d (lost messages?)", sends, recvs)
	}
}

func TestTMStateRoundTrip(t *testing.T) {
	_, tms := runFleet(t, 72, 2, 5)
	img, err := tms[1].MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	var tm2 TM
	if err := tm2.UnmarshalState(img); err != nil {
		t.Fatal(err)
	}
	if tm2.DSM.Me != 1 || tm2.Iter != tms[1].Iter || len(tm2.Bodies) != 72 {
		t.Error("state diverged")
	}
	if err := tm2.UnmarshalState([]byte{1, 2}); err == nil {
		t.Error("garbage must fail")
	}
}

func TestNewRejectsUnevenPartition(t *testing.T) {
	if _, err := New(0, 4, 71, 1); err == nil {
		t.Error("71 bodies across 4 procs must be rejected")
	}
}

// TestDSMSurvivesStopFailures: crash two processes mid-run under CPVS and
// CBNDV-2PC; physics must still match the oracle exactly.
func TestDSMSurvivesStopFailures(t *testing.T) {
	const nbodies, iters = 72, 4
	oracle := SequentialOracle(nbodies, iters)
	for _, pol := range []protocol.Policy{protocol.CPVS, protocol.CBNDV2PC, protocol.CANDLog} {
		progs, err := Fleet(4, nbodies, iters)
		if err != nil {
			t.Fatal(err)
		}
		w := sim.NewWorld(3, progs...)
		w.MaxSteps = 5_000_000
		d := dc.New(w, pol, stablestore.Rio)
		if err := d.Attach(); err != nil {
			t.Fatal(err)
		}
		w.ScheduleStop(1, 20)
		w.ScheduleStop(3, 60)
		if err := w.Run(); err != nil {
			t.Fatalf("%s: %v", pol.Name, err)
		}
		if !w.AllDone() {
			for _, p := range w.Procs {
				t.Logf("%s: %v (crashes %d)", p.Prog.Name(), p.Status(), p.Crashes)
			}
			t.Errorf("%s: fleet did not finish after failures", pol.Name)
			continue
		}
		if d.Stats.Recoveries < 2 {
			t.Errorf("%s: recoveries = %d", pol.Name, d.Stats.Recoveries)
		}
		for pi := 0; pi < 4; pi++ {
			tm := w.Procs[pi].Prog.(*TM)
			for i, b := range tm.FinalBodies() {
				if want := oracle[tm.Lo+i]; b != want {
					t.Errorf("%s: proc %d body %d diverged from oracle", pol.Name, pi, tm.Lo+i)
					break
				}
			}
		}
	}
}

// TestTwoPhaseWinsForTreadMarks reproduces the paper's observation that 2PC
// protocols are the big win for TreadMarks: with visible events rare, the
// 2PC variants commit far less than commit-before-send ones.
func TestTwoPhaseWinsForTreadMarks(t *testing.T) {
	run := func(pol protocol.Policy) (int, time.Duration) {
		progs, err := Fleet(4, 72, 3)
		if err != nil {
			t.Fatal(err)
		}
		w := sim.NewWorld(3, progs...)
		w.MaxSteps = 5_000_000
		w.RecordTrace = false
		d := dc.New(w, pol, stablestore.Rio)
		if err := d.Attach(); err != nil {
			t.Fatal(err)
		}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return d.Stats.TotalCheckpoints(), w.Clock
	}
	cpvsCkpts, _ := run(protocol.CPVS)
	tpcCkpts, _ := run(protocol.CBNDV2PC)
	if tpcCkpts*5 > cpvsCkpts {
		t.Errorf("CBNDV-2PC ckpts %d should be well below CPVS %d", tpcCkpts, cpvsCkpts)
	}
}

// TestReportLineMatchesFormat: the scratch-built progress line is
// byte-for-byte what fmt's %.4f gives, signs, zeros and non-finite values
// included.
func TestReportLineMatchesFormat(t *testing.T) {
	for _, b := range []Body{
		{X: 1.23456789, Y: -0.00004, Z: 123456.5},
		{X: math.Copysign(0, -1), Y: 0, Z: -2.5e-5},
		{X: math.Inf(1), Y: math.Inf(-1), Z: math.NaN()},
	} {
		got := string(appendReport(nil, 15, b))
		want := fmt.Sprintf("iter %d body0=(%.4f,%.4f,%.4f)", 15, b.X, b.Y, b.Z)
		if got != want {
			t.Errorf("report line %q, want %q", got, want)
		}
	}
}
