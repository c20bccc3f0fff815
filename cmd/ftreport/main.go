// Command ftreport is the forensic command. From campaign ledgers (see
// internal/obs/ledger) it writes:
//
//   - a deterministic markdown report that reproduces the paper's Table 1
//     and Table 2 conflict counts from the ledger alone, plus injection-point
//     outcome heatmaps, conflict attribution by commit index, cross-run
//     histograms, and the mined dangerous-path machines with their
//     cross-check verdicts;
//   - a Perfetto/Chrome-trace campaign overview (one span per run over
//     deterministic virtual worker tracks, colored by outcome);
//   - a Graphviz rendering of one mined machine's dangerous-path coloring.
//
// ftbench -veto and ftsim -veto mine the same ledgers with the same miner
// and arm their studies with the machines' commit-veto policies.
//
// Every ledger output is a pure function of the ledger bytes, which are
// themselves invariant across worker counts and snapshot modes — so two
// campaigns that ran differently but computed the same runs produce
// byte-identical reports.
//
// Its other inputs are single process state machines, for which it prints
// the paper's dangerous paths — the events along which a commit would
// violate the Lose-work invariant — and the safe and doomed commit states:
//
//   - -demo colors the paper's Figures 5, 6B and 6C;
//   - -machine reads a machine description (statemachine.ReadMachine;
//     "-" is stdin);
//   - -events builds one process's executed-path machine from an event
//     trace written by ftsim -dump, exactly as statemachine.FromExecution
//     does inside the recovery checkers.
//
// -dot renders the selected machine's coloring (with -demo, Figure 6C's).
// A command line it cannot run exits 2 before any input is read.
//
// Usage:
//
//	ftreport -ledger campaign.ftl [-ledger more.ftl ...]
//	         [-md report.md] [-trace trace.json -workers 8]
//	         [-dot machine.dot [-key table1/nvi/two-phase]]
//	ftreport -demo | -machine FILE | -events FILE [-proc 0] [-crashed=false]
//	         [-dot machine.dot]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"failtrans/internal/event"
	"failtrans/internal/obs/ledger"
	"failtrans/internal/statemachine"
	"failtrans/internal/trace"
)

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// options is the parsed command line.
type options struct {
	ledgers         multiFlag
	machine, events string
	demo            bool
	md, trace       string
	workers         int
	dot, key        string
	proc            int
	crashed         bool
}

func main() {
	var o options
	flag.Var(&o.ledgers, "ledger", "campaign ledger file (repeatable; concatenated in flag order)")
	flag.StringVar(&o.machine, "machine", "", "color the machine described in this file (- for stdin)")
	flag.StringVar(&o.events, "events", "", "color one process's executed path from this event trace (ftsim -dump)")
	flag.BoolVar(&o.demo, "demo", false, "color the paper's Figure 5, 6B and 6C machines")
	flag.StringVar(&o.md, "md", "", "with -ledger: write the markdown report to this file (default: stdout)")
	flag.StringVar(&o.trace, "trace", "", "with -ledger: write the Perfetto campaign trace JSON to this file")
	flag.IntVar(&o.workers, "workers", 8, "with -ledger: virtual worker tracks for -trace")
	flag.StringVar(&o.dot, "dot", "", "write the selected machine's Graphviz coloring to this file")
	flag.StringVar(&o.key, "key", "", "with -ledger: mined machine to render with -dot (study/app/protocol; default: first mined)")
	flag.IntVar(&o.proc, "proc", 0, "with -events: process whose events form the path")
	flag.BoolVar(&o.crashed, "crashed", true, "with -events: treat the path's final state as a crash state")
	flag.Parse()
	if err := o.check(); err != nil {
		fmt.Fprintln(os.Stderr, "ftreport:", err)
		os.Exit(2)
	}

	var c *statemachine.Coloring
	switch {
	case len(o.ledgers) > 0:
		o.reportLedgers()
		return
	case o.demo:
		c = runDemo()
	case o.machine != "":
		c = report(readMachine(o.machine))
	default:
		c = report(fromEvents(o.events, o.proc, o.crashed))
	}
	if o.dot != "" {
		writeTo(o.dot, func(w io.Writer) error { return c.WriteDot(w, "dangerous") })
	}
}

// check validates the command line before any input is read: a misspelled
// flag combination should fail instantly, not after parsing gigabytes. The
// first failing row is the error.
func (o *options) check() error {
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	ledgerOn, eventsOn := len(o.ledgers) > 0, o.events != ""
	modes := 0
	for _, on := range []bool{ledgerOn, o.machine != "", eventsOn, o.demo} {
		if on {
			modes++
		}
	}
	for _, row := range []struct {
		bad bool
		msg string
	}{
		{modes != 1, "exactly one of -ledger, -machine, -events and -demo is required"},
		{!ledgerOn && (set["md"] || set["trace"] || set["workers"]), "-md, -trace and -workers apply only with -ledger"},
		{o.workers < 1, "-workers must be >= 1"},
		{set["key"] && (!ledgerOn || o.dot == ""), "-key selects the -dot machine of a -ledger report; it needs both"},
		{(set["proc"] || set["crashed"]) && !eventsOn, "-proc and -crashed apply only with -events"},
		{flag.NArg() > 0, fmt.Sprintf("unexpected argument %q", flag.Arg(0))},
	} {
		if row.bad {
			return errors.New(row.msg)
		}
	}
	return nil
}

// reportLedgers writes the ledger artifacts the options ask for.
func (o *options) reportLedgers() {
	recs, err := ledger.ReadPaths("ftreport", os.Stderr, o.ledgers)
	if err != nil {
		fail(err)
	}
	rp := ledger.Analyze(recs)

	out := io.Writer(os.Stdout)
	var mdFile *os.File
	if o.md != "" {
		mdFile, err = os.Create(o.md)
		if err != nil {
			fail(err)
		}
		out = mdFile
	}
	if err := rp.WriteMarkdown(out); err != nil {
		fail(err)
	}
	if mdFile != nil {
		if err := mdFile.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s\n", o.md)
	}

	if o.trace != "" {
		writeTo(o.trace, func(w io.Writer) error {
			return rp.WriteCampaignTrace(w, o.workers)
		})
	}
	if o.dot != "" {
		k := o.key
		if k == "" {
			keys := rp.Miner.Keys()
			if len(keys) == 0 {
				fail(fmt.Errorf("no machines mined from %d records; nothing for -dot", len(recs)))
			}
			k = keys[0]
		}
		writeTo(o.dot, func(w io.Writer) error {
			return rp.WriteMachineDot(w, k)
		})
	}
}

// readMachine parses the machine description at path ("-" is stdin).
func readMachine(path string) *statemachine.Machine {
	in := io.Reader(os.Stdin)
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		in = f
	}
	m, err := statemachine.ReadMachine(in)
	if err != nil {
		fail(err)
	}
	return m
}

// fromEvents loads an ftsim -dump event trace and builds the executed-path
// machine of one process.
func fromEvents(path string, proc int, crashed bool) *statemachine.Machine {
	f, err := os.Open(path)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	t, err := trace.Load(f)
	if err != nil {
		fail(err)
	}
	var evs []event.Event
	for _, e := range t.Events {
		if e.ID.P == proc {
			evs = append(evs, e)
		}
	}
	if len(evs) == 0 {
		fail(fmt.Errorf("trace %s has no events for process %d (of %d procs)", path, proc, t.NumProcs))
	}
	fmt.Printf("trace %s: proc %d, %d events, crashed=%v\n", path, proc, len(evs), crashed)
	return statemachine.FromExecution(evs, crashed)
}

// report prints a machine's coloring and its safe and doomed commit
// states, and returns the coloring.
func report(m *statemachine.Machine) *statemachine.Coloring {
	c := m.DangerousPaths()
	fmt.Printf("machine: %d states, %d events, %d crash states\n", m.NumStates, len(m.Edges), len(m.CrashStates))
	fmt.Println("events (colored = on a dangerous path):")
	for i, e := range m.Edges {
		mark := " "
		if c.Dangerous(statemachine.EventID(i)) {
			mark = "*"
		}
		nd := map[event.NDClass]string{event.Deterministic: "det", event.TransientND: "transient", event.FixedND: "fixed"}[e.ND]
		fmt.Printf("  %s e%-3d %3d -> %-3d %-9s %s\n", mark, i, e.From, e.To, nd, e.Label)
	}
	fmt.Print("safe commit states: ")
	for _, s := range c.SafeCommitStates() {
		fmt.Printf("%d ", s)
	}
	fmt.Println()
	fmt.Print("doomed commit states: ")
	for s := 0; s < m.NumStates; s++ {
		if !m.CrashStates[statemachine.StateID(s)] && c.CommitUnsafeAt(statemachine.StateID(s)) {
			fmt.Printf("%d ", s)
		}
	}
	fmt.Println()
	return c
}

// runDemo reports the paper's Figure 5, 6B and 6C machines and returns the
// last coloring.
func runDemo() *statemachine.Coloring {
	fmt.Println("=== Figure 5: buffer-overrun timeline ===")
	fmt.Println("A transient ND event e sends execution down a path that overruns a")
	fmt.Println("buffer, trashes a pointer, and crashes on its use. Committing any")
	fmt.Println("time after e dooms recovery; committing before e is safe.")
	m := statemachine.New(7)
	m.AddEdge(statemachine.Edge{From: 0, To: 1, ND: event.TransientND, Label: "ND event e (unlucky result)"})
	m.AddEdge(statemachine.Edge{From: 0, To: 6, ND: event.TransientND, Label: "ND event e (lucky result)"})
	m.AddEdge(statemachine.Edge{From: 1, To: 2, Label: "begin buffer init"})
	m.AddEdge(statemachine.Edge{From: 2, To: 3, Label: "overwrite pointer"})
	m.AddEdge(statemachine.Edge{From: 3, To: 4, Label: "use pointer (crash)"})
	m.MarkCrash(4)
	report(m)

	fmt.Println()
	fmt.Println("=== Figure 6B: transient non-determinism with an escape ===")
	b := statemachine.New(5)
	b.AddEdge(statemachine.Edge{From: 0, To: 1, ND: event.TransientND, Label: "bad result"})
	b.AddEdge(statemachine.Edge{From: 0, To: 2, ND: event.TransientND, Label: "good result"})
	b.AddEdge(statemachine.Edge{From: 1, To: 3, Label: "doomed"})
	b.AddEdge(statemachine.Edge{From: 2, To: 4, Label: "completes"})
	b.MarkCrash(3)
	report(b)

	fmt.Println()
	fmt.Println("=== Figure 6C: the same fork, but FIXED non-determinism ===")
	c := statemachine.New(5)
	c.AddEdge(statemachine.Edge{From: 0, To: 1, ND: event.FixedND, Label: "bad result"})
	c.AddEdge(statemachine.Edge{From: 0, To: 2, ND: event.FixedND, Label: "good result"})
	c.AddEdge(statemachine.Edge{From: 1, To: 3, Label: "doomed"})
	c.AddEdge(statemachine.Edge{From: 2, To: 4, Label: "completes"})
	c.MarkCrash(3)
	coloring := report(c)
	fmt.Println()
	fmt.Println("Note how state 0 is a safe commit point under transient ND (6B) but")
	fmt.Println("doomed under fixed ND (6C): recovery cannot rely on fixed events changing.")
	return coloring
}

// writeTo writes one artifact file, failing the command on any error.
func writeTo(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	if err := write(f); err != nil {
		f.Close() //failtrans:errok best-effort cleanup; the write error being reported is the primary failure
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s\n", path)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ftreport:", err)
	os.Exit(1)
}
