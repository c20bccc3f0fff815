// Package protocol defines the Save-work protocols of Section 2.4 as
// declarative commit/log policies, plus the two-dimensional protocol space
// of Figures 3 and 4 in which every consistent-recovery protocol lives.
//
// One axis of the space is effort made to identify or convert (by logging)
// application non-determinism; the other is effort made to commit only for
// true visible events. The seven policies the paper measures are CAND, CPVS,
// CBNDVS, CAND-LOG, CBNDVS-LOG, CPV-2PC and CBNDV-2PC; the remaining catalog
// entries (SBL, FBL, Manetho, Targon/32, Hypervisor, Optimistic Logging,
// Coordinated Checkpointing) are placed in the space for the Figure 3
// reproduction. Discount Checking (internal/dc) runs every entry.
package protocol

import "fmt"

// TwoPhaseScope selects which processes a coordinated commit includes.
type TwoPhaseScope uint8

const (
	// NoTwoPhase disables coordinated commits.
	NoTwoPhase TwoPhaseScope = iota
	// AllProcesses commits every process whenever any process executes a
	// visible event (the paper's CPV-2PC).
	AllProcesses
	// DependentProcesses commits only the executing process and the
	// processes whose uncommitted non-determinism it causally depends on
	// (the paper's CBNDV-2PC refinement).
	DependentProcesses
)

// Policy is a declarative Save-work protocol: when to log, when to commit.
type Policy struct {
	Name string

	// LogInput renders fixed-ND user input deterministic by logging it.
	LogInput bool
	// LogReceives renders message receive events deterministic.
	LogReceives bool
	// LogAll logs every non-deterministic event (the Hypervisor point:
	// never forced to commit).
	LogAll bool
	// LogAsync writes log records to a volatile buffer and forces them
	// to stable storage only before visible events (and commits) — the
	// Optimistic Logging discipline: "processes write log records to
	// stable storage asynchronously; when a process wants to do a
	// visible event, it first waits for all relevant log records to
	// make it to disk."
	LogAsync bool

	// CommitEveryEvent commits after every event of any kind — the
	// trivial protocol at the origin of the space, needing no knowledge
	// of event types at all.
	CommitEveryEvent bool
	// CommitAfterND commits immediately after every event that is still
	// effectively non-deterministic after logging (the CAND family).
	CommitAfterND bool
	// CommitBeforeVisible commits just before each visible event.
	CommitBeforeVisible bool
	// CommitBeforeSend commits just before each send (the pessimistic
	// alternative to tracking cross-process causality).
	CommitBeforeSend bool
	// OnlyIfNDSinceCommit suppresses a before-commit when the process
	// has executed no effectively-ND event since its last commit (the
	// CBNDVS refinement).
	OnlyIfNDSinceCommit bool
	// TwoPhase makes visible events trigger a coordinated commit
	// instead of relying on commit-before-send.
	TwoPhase TwoPhaseScope

	// SpaceX and SpaceY are the protocol's coordinates in the Figure 3
	// space (0–10): X = effort to identify/convert non-determinism,
	// Y = effort to commit only visible events.
	SpaceX, SpaceY float64

	// Note describes the protocol's historical origin.
	Note string
}

// String returns the policy name.
func (p Policy) String() string { return p.Name }

// Coordinated reports whether visible events trigger a two-phase
// coordinated commit (of any scope) instead of per-process commits.
func (p Policy) Coordinated() bool { return p.TwoPhase != NoTwoPhase }

// LogsLabel reports whether the policy logs ND events with the given
// runtime label ("input", "recv", "gettimeofday", "rand", "sys.*").
func (p Policy) LogsLabel(label string) bool {
	if p.LogAll {
		return true
	}
	switch label {
	case "input":
		return p.LogInput
	case "recv":
		return p.LogReceives
	default:
		return false
	}
}

// The seven measured protocols of Figure 8.
var (
	// CAND commits immediately after every non-deterministic event; it
	// needs no knowledge of visible events.
	CAND = Policy{
		Name: "CAND", CommitAfterND: true,
		SpaceX: 3, SpaceY: 0,
		Note: "commit after non-deterministic",
	}
	// CPVS commits just before every visible or send event; it needs no
	// knowledge of non-determinism.
	CPVS = Policy{
		Name: "CPVS", CommitBeforeVisible: true, CommitBeforeSend: true,
		SpaceX: 3, SpaceY: 5,
		Note: "commit prior to visible or send",
	}
	// CBNDVS commits before a visible or send event only if the process
	// executed a non-deterministic event since its last commit.
	CBNDVS = Policy{
		Name: "CBNDVS", CommitBeforeVisible: true, CommitBeforeSend: true, OnlyIfNDSinceCommit: true,
		SpaceX: 5, SpaceY: 5,
		Note: "commit between non-deterministic and visible or send",
	}
	// CANDLog is CAND with user input and receives rendered
	// deterministic by logging.
	CANDLog = Policy{
		Name: "CAND-LOG", CommitAfterND: true, LogInput: true, LogReceives: true,
		SpaceX: 7, SpaceY: 0,
		Note: "CAND + input/receive logging",
	}
	// CBNDVSLog is CBNDVS with input/receive logging.
	CBNDVSLog = Policy{
		Name: "CBNDVS-LOG", CommitBeforeVisible: true, CommitBeforeSend: true, OnlyIfNDSinceCommit: true,
		LogInput: true, LogReceives: true,
		SpaceX: 7, SpaceY: 5,
		Note: "CBNDVS + input/receive logging",
	}
	// CPV2PC uses two-phase commit: every process commits whenever any
	// process executes a visible event; sends need no commit.
	CPV2PC = Policy{
		Name: "CPV-2PC", CommitBeforeVisible: true, TwoPhase: AllProcesses,
		SpaceX: 3, SpaceY: 8,
		Note: "commit prior to visible, two-phase",
	}
	// CBNDV2PC coordinates a commit of only the causally dependent
	// processes, and only when relevant non-determinism is uncommitted.
	CBNDV2PC = Policy{
		Name: "CBNDV-2PC", CommitBeforeVisible: true, OnlyIfNDSinceCommit: true, TwoPhase: DependentProcesses,
		SpaceX: 5, SpaceY: 8,
		Note: "commit between non-deterministic and visible, two-phase",
	}
)

// Catalog protocols from the literature, placed in the space of Figure 3.
var (
	// CommitAll sits at the origin: it commits every event, needing no
	// knowledge of event types at all.
	CommitAll = Policy{
		Name: "COMMIT-ALL", CommitEveryEvent: true,
		SpaceX: 0, SpaceY: 0,
		Note: "commit every event (origin of the space)",
	}
	// SBL is sender-based message logging: receives are logged, other
	// non-determinism forces commits.
	SBL = Policy{
		Name: "SBL", CommitAfterND: true, LogReceives: true,
		SpaceX: 5, SpaceY: 0,
		Note: "sender-based logging (Johnson & Zwaenepoel)",
	}
	// FBL is family-based logging; operationally like SBL here, with log
	// records kept by downstream processes.
	FBL = Policy{
		Name: "FBL", CommitAfterND: true, LogReceives: true,
		SpaceX: 5, SpaceY: 2,
		Note: "family-based logging (Alvisi et al.)",
	}
	// Targon32 converts all non-determinism except signals into logged
	// messages; signals force commits.
	Targon32 = Policy{
		Name: "TARGON/32", CommitAfterND: true, LogInput: true, LogReceives: true,
		SpaceX: 8, SpaceY: 0,
		Note: "Targon/32 (Borg et al.)",
	}
	// Hypervisor logs every source of non-determinism under a virtual
	// machine and never commits.
	Hypervisor = Policy{
		Name: "HYPERVISOR", LogAll: true,
		SpaceX: 10, SpaceY: 0,
		Note: "hypervisor-based fault tolerance (Bressoud & Schneider)",
	}
	// OptimisticLogging writes log records asynchronously and waits for
	// them before visible events.
	OptimisticLogging = Policy{
		Name: "OPTIMISTIC", LogAll: true, LogAsync: true,
		SpaceX: 8, SpaceY: 7,
		Note: "optimistic logging (Strom & Yemini)",
	}
	// Manetho maintains antecedence graphs of all non-determinism,
	// flushed to stable storage before visible events.
	Manetho = Policy{
		Name: "MANETHO", LogAll: true, LogAsync: true,
		SpaceX: 9, SpaceY: 9,
		Note: "Manetho antecedence graphs (Elnozahy & Zwaenepoel)",
	}
	// CoordinatedCheckpointing forces all recently communicating
	// processes to commit when one executes a visible event.
	CoordinatedCheckpointing = Policy{
		Name: "COORDINATED", CommitBeforeVisible: true, TwoPhase: AllProcesses,
		SpaceX: 1, SpaceY: 8,
		Note: "coordinated checkpointing (Koo & Toueg)",
	}
)

// Measured lists the seven protocols of Figure 8, in the paper's order.
func Measured() []Policy {
	return []Policy{CAND, CPVS, CBNDVS, CANDLog, CBNDVSLog, CPV2PC, CBNDV2PC}
}

// Space lists every cataloged protocol for the Figure 3 reproduction.
func Space() []Policy {
	return []Policy{
		CommitAll, CAND, SBL, FBL, Targon32, Hypervisor,
		CPVS, CBNDVS, CANDLog, CBNDVSLog,
		CPV2PC, CBNDV2PC, OptimisticLogging, Manetho, CoordinatedCheckpointing,
	}
}

// ByName finds a policy by its (case-sensitive) name.
func ByName(name string) (Policy, error) {
	for _, p := range Space() {
		if p.Name == name {
			return p, nil
		}
	}
	return Policy{}, fmt.Errorf("protocol: unknown protocol %q", name)
}

// LeavesNonDeterminism reports the design-variable trend of Figure 4:
// protocols further from the horizontal axis (higher Y, fewer forced
// commits per ND event) leave more non-determinism uncommitted in the
// application, improving its chances against propagation failures. The
// returned score is heuristic: Y minus a penalty for converting ND by
// logging (logged events are replayed, which pins execution just as a
// commit does).
func (p Policy) LeavesNonDeterminism() float64 {
	score := p.SpaceY
	if p.CommitAfterND {
		score -= 5
	}
	if p.LogAll {
		score -= 5
	} else {
		if p.LogReceives {
			score -= 2
		}
		if p.LogInput {
			score -= 1
		}
	}
	return score
}
