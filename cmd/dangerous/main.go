// Command dangerous computes the paper's dangerous paths for a process
// state machine: the events along which a commit would violate the
// Lose-work invariant and make recovery from a propagation failure
// impossible.
//
// It accepts four input modes, mutually exclusive:
//
//   - -demo reproduces the paper's Figures 5 and 6;
//
//   - -trace builds the executed-path machine of one process from a
//     recorded run trace (cmd/ftsim -trace), exactly as
//     statemachine.FromExecution does inside the recovery checkers;
//
//   - -ledger reports a machine mined from a campaign ledger
//     (ftbench -ledger / ftsim -ledger), merged across every run of one
//     (study, app, protocol) key;
//
//   - otherwise it reads a machine description from the file named by -f
//     (or stdin):
//
//     states <n>            (once, first; n at most maxStates)
//     start <state>
//     crash <state>
//     edge <from> <to> det|transient|fixed [label ...]
//
// In every mode it prints the coloring and the safe commit states. A command
// line it cannot run (a flag of another mode, a stray argument) exits 2
// before any input is read.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"failtrans/internal/event"
	"failtrans/internal/obs/ledger"
	"failtrans/internal/statemachine"
	"failtrans/internal/trace"
)

func main() {
	demo := flag.Bool("demo", false, "reproduce the paper's Figure 5 and Figure 6 examples")
	file := flag.String("f", "", "machine description file (default: stdin)")
	traceFile := flag.String("trace", "", "build the machine from a recorded run trace (cmd/ftsim -trace)")
	procID := flag.Int("proc", 0, "with -trace: process whose events form the path")
	crashed := flag.Bool("crashed", true, "with -trace: treat the path's final state as a crash state")
	ledgerFile := flag.String("ledger", "", "report a machine mined from this campaign ledger (ftbench -ledger)")
	key := flag.String("key", "", "with -ledger: machine key study/app/protocol (default: first mined)")
	dot := flag.String("dot", "", "also write a Graphviz rendering of the coloring to this file")
	flag.Parse()
	dotOut = *dot
	if err := checkArgs(*demo, *file != "", *traceFile != "", *ledgerFile != ""); err != nil {
		fmt.Fprintln(os.Stderr, "dangerous:", err)
		os.Exit(2)
	}

	switch {
	case *demo:
		runDemo()
	case *traceFile != "":
		report(fromTrace(*traceFile, *procID, *crashed))
	case *ledgerFile != "":
		report(fromLedger(*ledgerFile, *key))
	default:
		in := io.Reader(os.Stdin)
		if *file != "" {
			f, err := os.Open(*file)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			in = f
		}
		m, err := parse(in)
		if err != nil {
			fail(err)
		}
		report(m)
	}
}

// checkArgs rejects a command line selecting more than one input mode, a
// mode's option without its mode, or a positional argument.
func checkArgs(demoOn, fileOn, traceOn, ledgerOn bool) error {
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	n := 0
	for _, on := range []bool{demoOn, fileOn, traceOn, ledgerOn} {
		if on {
			n++
		}
	}
	switch {
	case n > 1:
		return fmt.Errorf("-demo, -f, -trace and -ledger are mutually exclusive")
	case (set["proc"] || set["crashed"]) && !traceOn:
		return fmt.Errorf("-proc and -crashed apply only with -trace")
	case set["key"] && !ledgerOn:
		return fmt.Errorf("-key applies only with -ledger")
	case flag.NArg() > 0:
		return fmt.Errorf("unexpected argument %q (the description file is named by -f)", flag.Arg(0))
	}
	return nil
}

// fromTrace loads a recorded run trace and builds the executed-path machine
// of one process.
func fromTrace(path string, proc int, crashed bool) *statemachine.Machine {
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

// fromLedger mines machines from a campaign ledger and returns the keyed
// (or first) one.
func fromLedger(path, key string) *statemachine.Machine {
	f, err := os.Open(path)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	recs, err := ledger.ReadAll(f)
	if err != nil {
		fail(err)
	}
	miner := ledger.NewMiner()
	for i := range recs {
		miner.Add(&recs[i])
	}
	keys := miner.Keys()
	if len(keys) == 0 {
		fail(fmt.Errorf("ledger %s: no machines mined from %d records", path, len(recs)))
	}
	if key == "" {
		key = keys[0]
	}
	md := miner.Get(key)
	if md == nil {
		fail(fmt.Errorf("ledger %s: no machine %q (have %v)", path, key, keys))
	}
	fmt.Printf("ledger %s: machine %s mined from %d runs (of %v)\n", path, key, md.Runs, keys)
	return md.Machine()
}

// maxStates caps a description's state count: the coloring allocates per
// state, so an unbounded count is an out-of-memory crash, not a machine.
const maxStates = 1 << 20

func parse(in io.Reader) (*statemachine.Machine, error) {
	sc := bufio.NewScanner(in)
	var m *statemachine.Machine
	line, statesLine := 0, 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		bad := func(msg string) error { return fmt.Errorf("line %d: %s", line, msg) }
		switch fields[0] {
		case "states":
			if m != nil {
				return nil, bad(fmt.Sprintf("repeated states line (first on line %d)", statesLine))
			}
			var n int
			if len(fields) != 2 || scan(fields[1], &n) != nil || n <= 0 {
				return nil, bad("states <n>")
			}
			if n > maxStates {
				return nil, bad(fmt.Sprintf("states %d exceeds the limit of %d", n, maxStates))
			}
			m, statesLine = statemachine.New(n), line
		case "start":
			if m == nil {
				return nil, bad("start before states")
			}
			var s int
			if len(fields) != 2 || scan(fields[1], &s) != nil {
				return nil, bad("start <state>")
			}
			m.Start = statemachine.StateID(s)
		case "crash":
			if m == nil {
				return nil, bad("crash before states")
			}
			var s int
			if len(fields) != 2 || scan(fields[1], &s) != nil {
				return nil, bad("crash <state>")
			}
			m.MarkCrash(statemachine.StateID(s))
		case "edge":
			if m == nil {
				return nil, bad("edge before states")
			}
			if len(fields) < 4 {
				return nil, bad("edge <from> <to> det|transient|fixed [label]")
			}
			var from, to int
			if scan(fields[1], &from) != nil || scan(fields[2], &to) != nil {
				return nil, bad("edge states must be integers")
			}
			var nd event.NDClass
			switch fields[3] {
			case "det":
				nd = event.Deterministic
			case "transient":
				nd = event.TransientND
			case "fixed":
				nd = event.FixedND
			default:
				return nil, bad("class must be det, transient or fixed")
			}
			m.AddEdge(statemachine.Edge{
				From: statemachine.StateID(from), To: statemachine.StateID(to),
				ND: nd, Label: strings.Join(fields[4:], " "),
			})
		default:
			return nil, bad("unknown directive " + fields[0])
		}
	}
	if m == nil {
		return nil, fmt.Errorf("empty machine description")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, sc.Err()
}

func scan(s string, v *int) (err error) {
	*v, err = strconv.Atoi(s)
	return err
}

// dotOut, when set, receives a Graphviz rendering of the last coloring.
var dotOut string

func report(m *statemachine.Machine) {
	c := m.DangerousPaths()
	if dotOut != "" {
		f, err := os.Create(dotOut)
		if err != nil {
			fail(err)
		}
		if err := c.WriteDot(f, "dangerous"); err != nil {
			f.Close() //failtrans:errok best-effort cleanup; the export error being reported is the primary failure
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Println("wrote", dotOut)
	}
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
}

func runDemo() {
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
	report(c)
	fmt.Println()
	fmt.Println("Note how state 0 is a safe commit point under transient ND (6B) but")
	fmt.Println("doomed under fixed ND (6C): recovery cannot rely on fixed events changing.")
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dangerous:", err)
	os.Exit(1)
}
