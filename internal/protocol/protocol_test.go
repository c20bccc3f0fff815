package protocol

import "testing"

func TestMeasuredOrder(t *testing.T) {
	got := Measured()
	want := []string{"CAND", "CPVS", "CBNDVS", "CAND-LOG", "CBNDVS-LOG", "CPV-2PC", "CBNDV-2PC"}
	if len(got) != len(want) {
		t.Fatalf("Measured returned %d protocols", len(got))
	}
	for i, p := range got {
		if p.Name != want[i] {
			t.Errorf("Measured[%d] = %s, want %s", i, p.Name, want[i])
		}
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("CBNDVS-LOG")
	if err != nil || p.Name != "CBNDVS-LOG" {
		t.Errorf("ByName = %v, %v", p, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown protocol must error")
	}
}

func TestLogsLabel(t *testing.T) {
	if CAND.LogsLabel("input") || CAND.LogsLabel("recv") {
		t.Error("CAND logs nothing")
	}
	if !CANDLog.LogsLabel("input") || !CANDLog.LogsLabel("recv") {
		t.Error("CAND-LOG logs input and receives")
	}
	if CANDLog.LogsLabel("gettimeofday") {
		t.Error("CAND-LOG does not log the clock")
	}
	if !Hypervisor.LogsLabel("gettimeofday") || !Hypervisor.LogsLabel("rand") || !Hypervisor.LogsLabel("sys.select") {
		t.Error("Hypervisor logs all non-determinism")
	}
}

func TestSpaceContainsAllAndUniqueNames(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range Space() {
		if seen[p.Name] {
			t.Errorf("duplicate protocol name %s", p.Name)
		}
		seen[p.Name] = true
		if p.SpaceX < 0 || p.SpaceX > 10 || p.SpaceY < 0 || p.SpaceY > 10 {
			t.Errorf("%s has out-of-range space coordinates (%v,%v)", p.Name, p.SpaceX, p.SpaceY)
		}
	}
	for _, m := range Measured() {
		if !seen[m.Name] {
			t.Errorf("measured protocol %s missing from space", m.Name)
		}
	}
	if !seen["COMMIT-ALL"] || !seen["HYPERVISOR"] || !seen["MANETHO"] {
		t.Error("catalog protocols missing from space")
	}
}

// TestFigure4Trend: protocols that commit after every ND event (the
// horizontal axis) leave the least non-determinism, and Lose-work says they
// guarantee failure to recover from propagation failures; CPVS and the 2PC
// protocols leave more.
func TestFigure4Trend(t *testing.T) {
	if CAND.LeavesNonDeterminism() >= CPVS.LeavesNonDeterminism() {
		t.Error("CAND must leave less non-determinism than CPVS")
	}
	if Hypervisor.LeavesNonDeterminism() >= CPVS.LeavesNonDeterminism() {
		t.Error("Hypervisor (logs all) must leave less non-determinism than CPVS")
	}
	if CPVS.LeavesNonDeterminism() > CPV2PC.LeavesNonDeterminism() {
		t.Error("2PC variants leave at least as much non-determinism as CPVS")
	}
}

func TestPolicyString(t *testing.T) {
	if CAND.String() != "CAND" {
		t.Errorf("String = %q", CAND.String())
	}
}

// TestRecommendMatchesPaperWinners: the advisor reproduces the paper's §3
// per-application conclusions from each workload's event mix.
func TestRecommendMatchesPaperWinners(t *testing.T) {
	cases := []struct {
		name string
		mix  EventMix
		want string
	}{
		// nvi: one visible and one fixed-ND input per keystroke, a
		// handful of residual clock events.
		{"nvi", EventMix{Visible: 100, Input: 100, OtherND: 2}, "CBNDVS-LOG"},
		// magic: plenty of unloggable transient ND per command (clock
		// reads), fewer visibles; the paper's winner was CBNDVS
		// (logging helped little, 27% vs 31% on disk).
		{"magic", EventMix{Visible: 20, Input: 60, OtherND: 30}, "CBNDVS"},
		// TreadMarks: copious sends/receives, almost no visibles.
		{"treadmarks", EventMix{Visible: 1, Sends: 400, Receives: 400, OtherND: 10, Distributed: true}, "CBNDV-2PC"},
		// xpilot: frequent visibles AND frequent unloggable ND on the
		// same processes; 2PC would raise the commit rate.
		{"xpilot", EventMix{Visible: 45, Sends: 45, Receives: 15, Input: 5, OtherND: 300, Distributed: true}, "CBNDVS"},
		// A compute-only app with purely loggable ND.
		{"batch", EventMix{Visible: 5, Input: 50}, "CBNDVS-LOG"},
		// Deterministic renderer: ND is the rare class.
		{"renderer", EventMix{Visible: 100, OtherND: 3}, "CBNDVS"},
	}
	for _, c := range cases {
		got, why := Recommend(c.mix)
		if got.Name != c.want {
			t.Errorf("%s: recommended %s (%s), want %s", c.name, got.Name, why, c.want)
		}
	}
	if s := RecommendString(EventMix{Visible: 1, Sends: 100, Distributed: true}); s == "" {
		t.Error("empty recommendation string")
	}
}
