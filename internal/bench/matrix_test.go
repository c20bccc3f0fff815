package bench

import (
	"bytes"
	"testing"

	"failtrans/internal/dc"
	"failtrans/internal/faults"
	"failtrans/internal/obs"
	"failtrans/internal/obs/ledger"
	"failtrans/internal/protocol"
	"failtrans/internal/sim"
	"failtrans/internal/stablestore"
)

// The execution-mode matrix. Worker count, where an injection run's world
// comes from (built from scratch, forked from a sealed snapshot) and the
// World scheduler (O(procs) scan, readiness index) change the effort a
// campaign spends, never its work: every artefact the tools emit must be
// byte-identical across them. Exactly one combination is reachable from
// cmd/ and from this package's production code; the others survive as
// oracles, and this test is where they are compared.

// cell is one point of the matrix.
type cell struct {
	name      string
	workers   int
	snapshots bool
	scan      bool
	// tablesOnly marks a cell that differs from production only in the
	// world source. Fig 8 and the ftsim trace fork nothing, so such a cell
	// would re-run production's sweep verbatim.
	tablesOnly bool
}

// production is what ftbench and ftsim run.
var production = cell{name: "production", workers: 4, snapshots: true}

// matrix holds the reference (every axis at its oldest, simplest setting),
// production, and every single-axis deviation from production.
var matrix = []cell{
	{name: "reference", workers: 1, scan: true},
	production,
	{name: "serial", workers: 1, snapshots: true},
	{name: "scratch", workers: 4, tablesOnly: true},
	{name: "scan", workers: 4, snapshots: true, scan: true},
}

// matrixCrashes is the per-type crash target CI's campaign ledgers use. The
// veto row needs vetoCrashes: Table 2's mined machines only start deferring
// commits once a campaign has a few hundred runs to mine.
const (
	matrixCrashes = 2
	vetoCrashes   = 25
)

// table1 runs Table 1 in the cell's mode and stores study JSON and ledger
// bytes. The production cell goes through Table1 itself; the others repeat
// its loop with the oracle knobs turned.
func (c cell) table1(t *testing.T, m *obs.CampaignMetrics, out map[string][]byte) {
	t.Helper()
	var l bytes.Buffer
	o := StudyOptions{Crashes: matrixCrashes, Workers: c.workers, CampaignObs: m, Ledger: ledger.NewWriter(&l)}
	res := &Table1Result{}
	if c == production {
		var err error
		if res, err = Table1(o); err != nil {
			t.Fatal(err)
		}
	} else {
		for _, app := range []string{"nvi", "postgres"} {
			s := faults.NewAppStudy(app)
			o.apply(s, "table1")
			s.Snapshots = c.snapshots
			rs, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if app == "nvi" {
				res.Nvi = rs
			} else {
				res.Postgres = rs
			}
		}
	}
	if err := o.Ledger.Err(); err != nil {
		t.Fatal(err)
	}
	out["table1.json"], out["table1.ftl"] = []byte(mustJSON(t, res)), l.Bytes()
}

// table2 is table1 for the OS study, optionally under a commit veto.
func (c cell) table2(t *testing.T, name string, crashes int, veto *ledger.Miner, out map[string][]byte) {
	t.Helper()
	var l bytes.Buffer
	o := StudyOptions{Crashes: crashes, Workers: c.workers, Ledger: ledger.NewWriter(&l), Veto: veto}
	res := &Table2Result{}
	if c == production {
		var err error
		if res, err = Table2(o); err != nil {
			t.Fatal(err)
		}
	} else {
		for _, app := range []string{"nvi", "postgres"} {
			s := faults.NewOSStudy(app)
			o.apply(s.AppStudy, "table2")
			s.Snapshots = c.snapshots
			rs, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if app == "nvi" {
				res.Nvi = rs
			} else {
				res.Postgres = rs
			}
		}
	}
	if err := o.Ledger.Err(); err != nil {
		t.Fatal(err)
	}
	out[name+".json"], out[name+".ftl"] = []byte(mustJSON(t, res)), l.Bytes()
}

// ftsimTrace is `ftsim -app treadmarks -protocol CPV-2PC -seed 7 -stop 1:60
// -tracefile`: a coordinated-commit run with a stop failure and recovery,
// exported as a Perfetto timeline.
func ftsimTrace(t *testing.T) []byte {
	t.Helper()
	w, err := BuildWorld("treadmarks", 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	w.EnableObs(true)
	pol, err := protocol.ByName("CPV-2PC")
	if err != nil {
		t.Fatal(err)
	}
	if err := dc.New(w, pol, stablestore.Rio).Attach(); err != nil {
		t.Fatal(err)
	}
	w.ScheduleStop(1, 60)
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.Tracer.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// run produces every artefact of the cell; veto holds the mined machines
// whose policies its veto-armed Table 2 row runs under.
func (c cell) run(t *testing.T, veto *ledger.Miner) (map[string][]byte, *obs.CampaignMetrics) {
	t.Helper()
	prev := sim.DefaultScanSched
	sim.DefaultScanSched = c.scan
	defer func() { sim.DefaultScanSched = prev }()
	got := map[string][]byte{}
	m := obs.NewCampaignMetrics(c.workers)
	c.table1(t, m, got)
	c.table2(t, "table2", matrixCrashes, nil, got)
	c.table2(t, "table2-veto", vetoCrashes, veto, got)
	if !c.tablesOnly {
		fig8, err := Fig8("nvi", 1, c.workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		got["fig8-nvi.json"] = []byte(mustJSON(t, fig8))
		got["ftsim-trace.json"] = ftsimTrace(t)
	}
	return got, m
}

// minedTable2Veto mines a Table 2 campaign's ledger and checks that its
// machines' commit-veto policies bite: re-running the campaign under them
// must defer commits, or the veto row would compare plain Table 2 twice.
func minedTable2Veto(t *testing.T) *ledger.Miner {
	t.Helper()
	mined := map[string][]byte{}
	production.table2(t, "mine", vetoCrashes, nil, mined)
	recs, err := ledger.ReadAll(bytes.NewReader(mined["mine.ftl"]))
	if err != nil {
		t.Fatal(err)
	}
	veto := ledger.Analyze(recs).Miner
	production.table2(t, "veto", vetoCrashes, veto, mined)
	if recs, err = ledger.ReadAll(bytes.NewReader(mined["veto.ftl"])); err != nil {
		t.Fatal(err)
	}
	deferred := 0
	for i := range recs {
		if !recs[i].VetoActive {
			t.Fatalf("table2 run %d ran without a veto policy", i)
		}
		deferred += recs[i].VetoN
	}
	if deferred == 0 {
		t.Fatal("the mined table2 policy deferred no commit")
	}
	return veto
}

// TestExecutionModeMatrix compares Table 1 and Table 2 study JSON and ledger
// bytes (plain, and Table 2 again under a commit veto mined once), Fig 8
// (nvi) JSON and the ftsim Perfetto trace of every cell against the
// reference cell.
func TestExecutionModeMatrix(t *testing.T) {
	veto := minedTable2Veto(t)
	var ref map[string][]byte
	for _, c := range matrix {
		got, m := c.run(t, veto)

		// A matrix whose cells all took the same path would prove nothing.
		sn := &m.Snapshot
		switch {
		case !c.snapshots && (sn.Forks != 0 || sn.Snapshots != 0):
			t.Errorf("%s: from-scratch cell forked (%d forks, %d snapshots)", c.name, sn.Forks, sn.Snapshots)
		case c.snapshots && (sn.Forks == 0 || sn.PagesPrivatized == 0):
			t.Errorf("%s: snapshot-served cell never forked or never privatized a page (%d forks, %d pages)",
				c.name, sn.Forks, sn.PagesPrivatized)
		}

		if ref == nil {
			ref = got
			for name, b := range ref {
				if len(b) == 0 {
					t.Fatalf("reference %s is empty", name)
				}
			}
			continue
		}
		for name, b := range got {
			if !bytes.Equal(b, ref[name]) {
				t.Errorf("%s: %s diverged from the reference cell (%d vs %d bytes)", c.name, name, len(b), len(ref[name]))
			}
		}
	}
}
