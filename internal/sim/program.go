// Package sim is a deterministic discrete-event simulator for computations
// in the paper's model: one or more processes, each a state machine, compute
// asynchronously and communicate by messages. Virtual time replaces wall
// time, so commit costs, think times and network latencies are charged
// exactly and runs are reproducible from a seed.
//
// The simulator is the substitute substrate for the paper's FreeBSD
// testbed (see DESIGN.md): applications are Programs whose every external
// action — reading the clock, consuming user input, sending and receiving
// messages, producing visible output, calling into the simulated OS — flows
// through a Ctx that records the corresponding event, classifies its
// non-determinism, and gives the recovery layer (Discount Checking) its
// interception points.
package sim

import "failtrans/internal/event"

// Status is what a Program's Step reports back to the scheduler.
type Status uint8

const (
	// Ready means the process has more work immediately available.
	Ready Status = iota
	// WaitMsg blocks the process until a message is delivered.
	WaitMsg
	// Sleeping blocks the process until the wake time requested with
	// Ctx.Sleep.
	Sleeping
	// Done means the program ran to completion.
	Done
	// Crashed means the program executed a crash event (it detected
	// corruption or hit a fatal error); the recovery layer may roll it
	// back.
	Crashed
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Ready:
		return "ready"
	case WaitMsg:
		return "wait-msg"
	case Sleeping:
		return "sleeping"
	case Done:
		return "done"
	case Crashed:
		return "crashed"
	default:
		return "unknown"
	}
}

// Program is an application process. Programs must be deterministic
// functions of their state and the values returned by Ctx: given the same
// state and the same ND results, Step must take identical actions. All
// mutable state must round-trip through MarshalState/UnmarshalState so the
// recovery layer can checkpoint and roll back the process.
//
// Checkpoint contract: a real Discount Checking commits the whole address
// space, including the thread of control; a Program's state is only
// captured between Steps. Two rules make every commit point resumable:
//
//  1. each Step executes at most ONE commit-relevant Ctx event (Now, Rand,
//     Input, Send, Recv, Output, or a non-deterministic Syscall) — a failed
//     Recv that returns ok=false records no event and does not count, and
//     any number of deterministic Syscalls (read, write, lseek, close) may
//     batch in a step, since no protocol commits around them;
//  2. state mutations in a Step come AFTER its Ctx event call, so a
//     commit taken before the event sees exactly the step-start state,
//     and a commit after the event (deferred to the step's end) sees the
//     event's full effect.
type Program interface {
	// Name identifies the program in traces and stats.
	Name() string
	// Init prepares the program's initial state. It runs before the
	// first Step and may use the Ctx.
	Init(ctx *Ctx) error
	// Step executes one unit of work and reports how to schedule the
	// process next.
	Step(ctx *Ctx) Status
	// MarshalState serializes the complete mutable state into a buffer
	// of its own. The commit path asks a StateAppender to write into the
	// checkpoint image instead; MarshalState is what a wrapper that hides
	// the optional interfaces, a round-trip Fork and the tests call.
	MarshalState() ([]byte, error)
	// UnmarshalState replaces the state with a previously marshaled one.
	UnmarshalState(data []byte) error
}

// StateAppender is an optional Program extension: AppendState appends
// exactly the bytes MarshalState would return to dst and returns the
// extended slice, so a process's checkpoint image is assembled in the
// recovery layer's one buffer instead of being encoded elsewhere and copied
// in. Every in-tree program implements it, and MarshalState as
// AppendState(nil).
type StateAppender interface {
	AppendState(dst []byte) ([]byte, error)
}

// Checker is an optional Program extension: a consistency check over the
// program's own data structures (checksums, invariants, guard bands). The
// paper's §2.6 observes that running such checks "right before committing
// is particularly important" — a failed check crashes the process instead
// of committing corrupt state, upholding Lose-work more often.
type Checker interface {
	CheckConsistency() error
}

// PartialState is an optional Program extension implementing the paper's
// §2.6 "reduce the comprehensiveness of the state saved" mitigation: the
// program identifies the state that absolutely must be preserved, and
// recomputes everything else from it after a failure. Committing less both
// shrinks checkpoints and leaves corrupted derived state uncommitted, so
// recovery can regenerate it cleanly.
type PartialState interface {
	// MarshalEssential serializes only the must-preserve state.
	MarshalEssential() ([]byte, error)
	// UnmarshalEssential restores it and recomputes all derived state.
	UnmarshalEssential(data []byte) error
}

// Recovery is the interception surface the recovery layer (Discount
// Checking) implements. A nil Recovery runs the computation unrecoverably.
type Recovery interface {
	// BeforeEvent runs before the process executes an event of the given
	// kind/class; the implementation may execute a commit here (the
	// commit-prior-to-visible-or-send family of protocols).
	BeforeEvent(p *Proc, kind event.Kind, nd event.NDClass, label string)
	// AfterEvent runs after the event executed (the commit-after-
	// non-deterministic family). Commits triggered here must be deferred
	// to EndStep so the checkpoint includes the state mutations the
	// program derives from the event's result within the same step.
	AfterEvent(p *Proc, ev event.Event)
	// EndStep runs after the program's Step returns (and did not
	// crash); deferred commits execute here.
	EndStep(p *Proc)
	// OnBlocked runs when a step returns WaitMsg. During constrained
	// re-execution the recovery layer reports true when the process's
	// next logged event is due now (the scheduler then retries the step
	// so the log can supply it), or resolves a divergence and returns
	// false.
	OnBlocked(p *Proc) bool
	// SupplyND gives the recovery layer a chance to replay a logged
	// value for the next ND event with this label during constrained
	// re-execution. It answers one of three ways: a non-nil val with
	// ok=true supplies the logged value; ok=false executes the event
	// live; and, for a poll (label "recv" or "signal"), a nil val with
	// ok=true reports that the original run's poll found nothing here, so
	// Recv and TakeSignal return empty without reading live state.
	SupplyND(p *Proc, label string) (val []byte, ok bool)
	// RecordND offers the live value of an ND event for logging; the
	// return value reports whether it was logged (rendering the event
	// deterministic for Save-work purposes). val is valid only during
	// the call: the simulator encodes ND values into one scratch buffer
	// that the next ND event overwrites, so an implementation that keeps
	// the value must copy it.
	RecordND(p *Proc, label string, val []byte) bool
	// OnCrash handles a crash of p; returning true means the process was
	// rolled back and may continue, false leaves it dead.
	OnCrash(p *Proc, reason string) bool
}

// OS is the simulated operating system interface; see internal/kernel for
// the implementation. Syscalls go through the kernel so that kernel faults
// can corrupt their results (the Table 2 study).
type OS interface {
	// Call executes a system call for process pid. It returns the
	// result, the call's non-determinism class (e.g. gettimeofday is
	// transient, open is fixed, a plain read of a regular file is
	// deterministic), and an error for invalid calls. The result may live
	// in storage the OS reuses: it is valid until pid's next Call. args
	// is valid only during the call: the caller reuses the vector, so an
	// OS that keeps an argument copies its bytes.
	Call(pid int, name string, args [][]byte) ([][]byte, event.NDClass, error)
	// SaveProcState captures the kernel state Discount Checking must
	// preserve for process pid (open file table entries, offsets, ...).
	SaveProcState(pid int) []byte
	// RestoreProcState reconstructs kernel state for pid during
	// recovery.
	RestoreProcState(pid int, blob []byte)
}
