package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"failtrans/internal/faults"
	"failtrans/internal/obs"
	"failtrans/internal/obs/ledger"
	"failtrans/internal/protocol"
)

// wallClock supplies wall-clock nanoseconds to the studies' fork-latency
// histogram. The studies live in the deterministic core and cannot call
// time.Now themselves; this package sits outside it and injects the clock.
func wallClock() int64 { return time.Now().UnixNano() }

// Table1Result holds the Table 1 reproduction for both applications.
type Table1Result struct {
	Nvi      []faults.TypeResult
	Postgres []faults.TypeResult
}

// StudyOptions is what a caller chooses about a fault study; everything
// else is the paper's configuration (faults.NewAppStudy). Only Veto changes
// a result: studies are byte-identical for any worker count, and metrics
// and the ledger are pure observation.
type StudyOptions struct {
	// Crashes is how many crashes to collect per fault type (~50 reproduces
	// the paper; smaller values run faster).
	Crashes int
	// Workers fans injection runs out over that many goroutines (0 or 1 =
	// serial).
	Workers int
	// CampaignObs, if non-nil, collects per-worker campaign counters.
	CampaignObs *obs.CampaignMetrics
	// Ledger, if non-nil, receives one forensic record per run.
	Ledger *ledger.Writer
	// Veto, if non-nil, arms each app's study with the commit-veto policy
	// of its machine mined from campaign ledgers (key
	// "<study>/<app>/<protocol>"; apps without one run veto-free).
	Veto *ledger.Miner
}

// apply configures one app's study ("table1" or "table2") from the options.
func (o StudyOptions) apply(s *faults.AppStudy, study string) {
	s.CrashTarget = o.Crashes
	s.MaxRunsPerType = o.Crashes * 12
	s.Parallel = o.Workers
	s.WallClock = wallClock
	s.CampaignObs = o.CampaignObs
	s.Ledger = o.Ledger
	if o.Veto == nil {
		return
	}
	if md := o.Veto.Get(study + "/" + s.App + "/" + s.Policy.Name); md != nil {
		s.Veto = md.VetoPolicy()
	}
}

// Table1 runs the application fault-injection study.
func Table1(o StudyOptions) (*Table1Result, error) {
	out := &Table1Result{}
	for _, app := range []string{"nvi", "postgres"} {
		s := faults.NewAppStudy(app)
		o.apply(s, "table1")
		rs, err := s.Run()
		if err != nil {
			return nil, err
		}
		if app == "nvi" {
			out.Nvi = rs
		} else {
			out.Postgres = rs
		}
	}
	return out, nil
}

// avgViolationPct averages the per-type violation percentages (as the
// paper's "Average" row does).
func avgViolationPct(rs []faults.TypeResult) float64 {
	if len(rs) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range rs {
		sum += r.ViolationPct()
	}
	return sum / float64(len(rs))
}

// Print renders Table 1 plus the paper's §4.1 composition with the
// Bohrbug/Heisenbug split from Chandra & Chen (5–15% of bugs are
// Heisenbugs).
func (t *Table1Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Table 1: fraction of application faults that violate Lose-work\n")
	fmt.Fprintf(w, "%-20s %14s %14s\n", "Fault Type", "nvi", "postgres")
	for i := range t.Nvi {
		fmt.Fprintf(w, "%-20s %13.0f%% %13.0f%%\n",
			t.Nvi[i].Kind, t.Nvi[i].ViolationPct(), t.Postgres[i].ViolationPct())
	}
	nv, pg := avgViolationPct(t.Nvi), avgViolationPct(t.Postgres)
	fmt.Fprintf(w, "%-20s %13.0f%% %13.0f%%\n", "Average", nv, pg)

	// §4.1 composition: these violation rates apply to Heisenbugs only;
	// Bohrbugs (85-95% of field bugs) violate Lose-work inherently.
	avg := (nv + pg) / 2
	for _, heisen := range []float64{5, 15} {
		upheld := (100 - avg) / 100 * heisen
		fmt.Fprintf(w, "with %2.0f%% Heisenbugs: Lose-work upheld in %.0f%% of crashes (violated in %.0f%%)\n",
			heisen, upheld, 100-upheld)
	}
}

// Table2Result holds the Table 2 reproduction.
type Table2Result struct {
	Nvi      []faults.OSTypeResult
	Postgres []faults.OSTypeResult
}

// Table2 runs the OS fault-injection study.
func Table2(o StudyOptions) (*Table2Result, error) {
	out := &Table2Result{}
	for _, app := range []string{"nvi", "postgres"} {
		s := faults.NewOSStudy(app)
		o.apply(s.AppStudy, "table2")
		rs, err := s.Run()
		if err != nil {
			return nil, err
		}
		if app == "nvi" {
			out.Nvi = rs
		} else {
			out.Postgres = rs
		}
	}
	return out, nil
}

// Print renders Table 2.
func (t *Table2Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Table 2: percent of OS faults with failed recovery\n")
	fmt.Fprintf(w, "%-20s %14s %14s\n", "Fault Type", "nvi", "postgres")
	avg := func(rs []faults.OSTypeResult) float64 {
		sum := 0.0
		for _, r := range rs {
			sum += r.FailurePct()
		}
		return sum / float64(len(rs))
	}
	for i := range t.Nvi {
		fmt.Fprintf(w, "%-20s %13.0f%% %13.0f%%\n",
			t.Nvi[i].Kind, t.Nvi[i].FailurePct(), t.Postgres[i].FailurePct())
	}
	fmt.Fprintf(w, "%-20s %13.0f%% %13.0f%%\n", "Average", avg(t.Nvi), avg(t.Postgres))
}

// PrintSpace renders the Figure 3 protocol space as an ASCII scatter plot
// plus the catalog.
func PrintSpace(w io.Writer) {
	const width, height = 64, 22
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = make([]byte, width)
		for j := range grid[i] {
			grid[i][j] = ' '
		}
	}
	for i, p := range protocol.Space() {
		x := int(p.SpaceX / 10 * float64(width-14))
		y := height - 2 - int(p.SpaceY/10*float64(height-3))
		row := grid[y]
		row[x] = byte('A' + i)
		// Write the name after the mark, stopping before it would
		// overwrite another protocol's cell.
		for j, ch := range []byte(" " + p.Name) {
			at := x + 1 + j
			if at >= width || row[at] != ' ' {
				break
			}
			row[at] = ch
		}
	}
	fmt.Fprintln(w, "Figure 3: the protocol space")
	fmt.Fprintln(w, "(y: effort to commit only visible events; x: effort to identify/convert non-determinism)")
	for _, row := range grid {
		fmt.Fprintf(w, "|%s\n", string(row))
	}
	fmt.Fprintf(w, "+%s> x\n", strings.Repeat("-", width))
	for _, p := range protocol.Space() {
		fmt.Fprintf(w, "  %-12s (%2.0f,%2.0f)  leaves-ND=%+.0f  %s\n",
			p.Name, p.SpaceX, p.SpaceY, p.LeavesNonDeterminism(), p.Note)
	}
}
