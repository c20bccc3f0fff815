// Package failtrans is a reproduction of "Exploring Failure Transparency
// and the Limits of Generic Recovery" (Lowell, Chandra & Chen, OSDI 2000)
// as a production-quality Go library.
//
// It provides:
//
//   - the paper's recovery theory as executable artifacts: the Save-work
//     invariant checker, the consistent-recovery output-equivalence
//     checker, orphan detection, and the single- and multi-process
//     Dangerous Paths algorithms behind the Lose-work theorem
//     (CheckSaveWork, Equivalent, FindOrphans, NewMachine);
//
//   - a Discount Checking reimplementation over a deterministic
//     discrete-event process simulator: full-process checkpoints in Vista
//     persistent segments, the seven measured Save-work protocols (CAND,
//     CPVS, CBNDVS, their logging variants, and the two-phase-commit
//     variants) plus the protocol-space catalog of Figure 3, rollback with
//     constrained re-execution, duplicate-filtered message redelivery, and
//     Rio-memory vs synchronous-disk commit cost models (NewWorld, NewDC);
//
//   - the paper's workload suite, implemented for real: the nvi editor,
//     the magic VLSI layout engine, the xpilot multiplayer game, a
//     TreadMarks-class DSM running Barnes-Hut, and a postgres-class
//     storage engine;
//
//   - the evaluation harness that regenerates Figure 8, Table 1 and
//     Table 2 (Fig8, Table1, Table2).
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for measured
// vs published results.
package failtrans

import (
	"io"
	"runtime"

	"failtrans/internal/bench"
	"failtrans/internal/dc"
	"failtrans/internal/event"
	"failtrans/internal/protocol"
	"failtrans/internal/recovery"
	"failtrans/internal/sim"
	"failtrans/internal/stablestore"
	"failtrans/internal/statemachine"
)

// Event model.
type (
	// Event is one state transition executed by a process.
	Event = event.Event
	// EventID names event e_p^i.
	EventID = event.ID
	// Trace records one run's events.
	Trace = event.Trace
	// HB is a happens-before oracle over a trace.
	HB = event.HB
)

// Event kinds and non-determinism classes.
const (
	Internal      = event.Internal
	Visible       = event.Visible
	Send          = event.Send
	Receive       = event.Receive
	Commit        = event.Commit
	Crash         = event.Crash
	Deterministic = event.Deterministic
	TransientND   = event.TransientND
	FixedND       = event.FixedND
)

// NewTrace returns an empty trace for n processes.
func NewTrace(n int) *Trace { return event.NewTrace(n) }

// NewHB computes happens-before for a trace.
func NewHB(t *Trace) *HB { return event.NewHB(t) }

// Recovery theory.
type (
	// SaveWorkViolation is one uncommitted non-deterministic dependence.
	SaveWorkViolation = recovery.SaveWorkViolation
	// Orphan is a process that committed a dependence on a lost event.
	Orphan = recovery.Orphan
	// FaultTimeline positions a propagation failure's marks for the
	// Lose-work checks.
	FaultTimeline = recovery.FaultTimeline
)

// CheckSaveWork verifies the Save-work invariant over a trace.
func CheckSaveWork(t *Trace) []SaveWorkViolation { return recovery.CheckSaveWork(t) }

// FindOrphans finds orphans for a hypothetical stop failure.
func FindOrphans(t *Trace, failed, executed int) []Orphan {
	return recovery.FindOrphans(t, failed, executed)
}

// Equivalent implements the paper's duplicates-allowed output equivalence.
func Equivalent(got, legal []string) (equivalent, complete bool) {
	return recovery.Equivalent(got, legal)
}

// Dangerous paths (the Lose-work theorem's machinery).
type (
	// Machine is a process state machine.
	Machine = statemachine.Machine
	// MachineEdge is one transition.
	MachineEdge = statemachine.Edge
	// Coloring is the dangerous-paths result.
	Coloring = statemachine.Coloring
	// StateID and MachineEventID index machines.
	StateID        = statemachine.StateID
	MachineEventID = statemachine.EventID
)

// NewMachine returns a machine with n states.
func NewMachine(n int) *Machine { return statemachine.New(n) }

// MultiProcessDangerousPaths runs the multi-process algorithm for process p.
func MultiProcessDangerousPaths(m *Machine, tr *Trace, p int) (*Coloring, error) {
	return statemachine.MultiProcessDangerousPaths(m, tr, p)
}

// Protocols and the protocol space.
type Policy = protocol.Policy

// The seven measured protocols and notable catalog points.
var (
	CAND       = protocol.CAND
	CPVS       = protocol.CPVS
	CBNDVS     = protocol.CBNDVS
	CANDLog    = protocol.CANDLog
	CBNDVSLog  = protocol.CBNDVSLog
	CPV2PC     = protocol.CPV2PC
	CBNDV2PC   = protocol.CBNDV2PC
	CommitAll  = protocol.CommitAll
	Hypervisor = protocol.Hypervisor
)

// MeasuredProtocols lists Figure 8's seven protocols.
func MeasuredProtocols() []Policy { return protocol.Measured() }

// ProtocolSpace lists the full Figure 3 catalog.
func ProtocolSpace() []Policy { return protocol.Space() }

// ProtocolByName resolves a protocol by name.
func ProtocolByName(name string) (Policy, error) { return protocol.ByName(name) }

// Simulator and Discount Checking.
type (
	// World is one simulated computation.
	World = sim.World
	// Proc is one simulated process.
	Proc = sim.Proc
	// Ctx is the application runtime interface.
	Ctx = sim.Ctx
	// Program is an application process.
	Program = sim.Program
	// Status is a Program step result.
	Status = sim.Status
	// Checker is the optional consistency-check extension of Program
	// (used by DC.CheckBeforeCommit, the §2.6 mitigation).
	Checker = sim.Checker
	// PartialStater is the optional essential-state extension of Program
	// (used by DC.EssentialOnly, the §2.6 reduce-the-state mitigation).
	PartialStater = sim.PartialState
	// FaultKind enumerates the injectable programming-error types.
	FaultKind = sim.FaultKind
	// FaultInjector decides whether a fault fires at an application
	// fault site.
	FaultInjector = sim.FaultInjector
	// DC is a Discount Checking instance.
	DC = dc.DC
	// Medium is a stable-storage cost model.
	Medium = stablestore.Medium
)

// Program step statuses.
const (
	Ready    = sim.Ready
	WaitMsg  = sim.WaitMsg
	Sleeping = sim.Sleeping
	Done     = sim.Done
	Crashed  = sim.Crashed
)

// The injectable fault kinds of Table 1.
const (
	NoFault      = sim.NoFault
	StackBitFlip = sim.StackBitFlip
	HeapBitFlip  = sim.HeapBitFlip
	DestReg      = sim.DestReg
	InitFault    = sim.InitFault
	DeleteBranch = sim.DeleteBranch
	DeleteInstr  = sim.DeleteInstr
	OffByOne     = sim.OffByOne
)

// Commit media.
var (
	// Rio models reliable main memory (the Rio file cache).
	Rio = stablestore.Rio
	// Disk models a synchronous late-1990s SCSI disk (DC-disk).
	Disk = stablestore.Disk
)

// NewWorld creates a deterministic simulated computation.
func NewWorld(seed int64, progs ...Program) *World { return sim.NewWorld(seed, progs...) }

// NewDC attaches Discount Checking to a world with the given commit policy
// and medium. Call (*DC).Attach before World.Run to take the initial
// checkpoints.
func NewDC(w *World, pol Policy, medium Medium) *DC { return dc.New(w, pol, medium) }

// Evaluation harness.
type (
	// Fig8Result is one application's protocol sweep.
	Fig8Result = bench.Fig8Result
	// Table1Result is the application fault study.
	Table1Result = bench.Table1Result
	// Table2Result is the OS fault study.
	Table2Result = bench.Table2Result
)

// Fig8 reproduces Figure 8 for one of "nvi", "magic", "xpilot",
// "treadmarks" at the given scale (1 = quick). The sweep's cells run in
// parallel across the machine's cores; results are byte-identical to a
// serial sweep (see internal/campaign).
func Fig8(app string, scale int) (*Fig8Result, error) {
	return bench.Fig8(app, scale, runtime.GOMAXPROCS(0), nil)
}

// Table1 reproduces the application fault-injection study with the given
// crash target per fault type (the paper used 50). Injection runs fan out
// across the machine's cores and are served from a prefix-snapshot cache;
// results are byte-identical to a serial from-scratch study.
func Table1(crashTarget int) (*Table1Result, error) {
	return bench.Table1(bench.StudyOptions{Crashes: crashTarget, Workers: runtime.GOMAXPROCS(0)})
}

// Table2 reproduces the OS fault-injection study, parallel and
// snapshot-served as in Table1.
func Table2(crashTarget int) (*Table2Result, error) {
	return bench.Table2(bench.StudyOptions{Crashes: crashTarget, Workers: runtime.GOMAXPROCS(0)})
}

// PrintProtocolSpace renders the Figure 3 protocol space.
func PrintProtocolSpace(w io.Writer) { bench.PrintSpace(w) }
