package ledger

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"failtrans/internal/obs"
	"failtrans/internal/statemachine"
)

// Report is an analyzed ledger: the records plus their aggregates and
// mined machines. Everything it writes is deterministic — iteration
// follows ledger order or sorted keys, never raw map order — so the same
// ledger produces byte-identical reports.
type Report struct {
	Recs  []Record
	Agg   *Aggregator
	Miner *Miner
}

// Analyze builds the aggregates and mined machines for a record stream.
func Analyze(recs []Record) *Report {
	rp := &Report{Recs: recs, Agg: NewAggregator(), Miner: NewMiner()}
	for i := range recs {
		rp.Agg.Add(&recs[i])
		rp.Miner.Add(&recs[i])
	}
	return rp
}

// studies lists the report's studies in first-appearance order.
func (rp *Report) studies() []string {
	var out []string
	seen := map[string]bool{}
	for _, g := range rp.Agg.Groups() {
		if !seen[g.Key.Study] {
			seen[g.Key.Study] = true
			out = append(out, g.Key.Study)
		}
	}
	return out
}

// groupsOf filters baseline groups by study, preserving order. Veto-phase
// cells are excluded: the main tables report the baseline, and the veto
// section pairs each veto cell with its counterpart.
func (rp *Report) groupsOf(study string) []*Group {
	var out []*Group
	for _, g := range rp.Agg.Groups() {
		if g.Key.Study == study && !g.Key.Veto {
			out = append(out, g)
		}
	}
	return out
}

// appsAndKinds lists the distinct apps and fault kinds of a group list, in
// first-appearance order.
func appsAndKinds(groups []*Group) (apps, kinds []string) {
	seenA, seenK := map[string]bool{}, map[string]bool{}
	for _, g := range groups {
		if !seenA[g.Key.App] {
			seenA[g.Key.App] = true
			apps = append(apps, g.Key.App)
		}
		if g.Key.Kind != "" && !seenK[g.Key.Kind] {
			seenK[g.Key.Kind] = true
			kinds = append(kinds, g.Key.Kind)
		}
	}
	return apps, kinds
}

func findGroup(groups []*Group, app, kind string) *Group {
	for _, g := range groups {
		if g.Key.App == app && g.Key.Kind == kind {
			return g
		}
	}
	return nil
}

// writeHistRow renders one histogram as a markdown table row.
func writeHistRow(w io.Writer, name string, h *obs.Histogram) {
	fmt.Fprintf(w, "| %s | %d | %d | %d | %d | %d |\n",
		name, h.Count, h.Mean(), h.Quantile(0.50), h.Quantile(0.99), h.Max)
}

// WriteMarkdown renders the full forensic report: the Table 1/Table 2
// reproductions computed from the ledger alone, injection-point outcome
// heatmaps, conflict attribution by commit index, cross-run histograms,
// and the mined dangerous-path machines with their cross-check verdicts.
func (rp *Report) WriteMarkdown(w io.Writer) error {
	fmt.Fprintf(w, "# Campaign forensics report\n\n")
	fmt.Fprintf(w, "%d records", len(rp.Recs))
	for i, study := range rp.studies() {
		n := int64(0)
		for _, g := range rp.groupsOf(study) {
			n += g.Runs
		}
		if i == 0 {
			fmt.Fprintf(w, " (")
		} else {
			fmt.Fprintf(w, ", ")
		}
		fmt.Fprintf(w, "%s: %d", study, n)
	}
	if len(rp.studies()) > 0 {
		fmt.Fprintf(w, ")")
	}
	fmt.Fprintf(w, "\n")

	for _, study := range rp.studies() {
		groups := rp.groupsOf(study)
		switch study {
		case "table1":
			rp.writeFaultTable(w, study, groups,
				"Table 1 (from ledger): fraction of application faults that violate Lose-work",
				"violating commit after fault activation, among crashes")
		case "table2":
			rp.writeFaultTable(w, study, groups,
				"Table 2 (from ledger): percent of OS faults with failed recovery",
				"failed end-to-end recoveries, among crashes")
		case "fig8":
			rp.writeFig8(w, groups)
		default:
			rp.writeGeneric(w, study, groups)
		}
	}

	rp.writeVeto(w)
	rp.writeMachines(w)
	return nil
}

// writeVeto renders the two-phase veto comparison: every veto-phase cell
// paired with its baseline counterpart (same key modulo the Veto bit),
// the Lose-work violations the veto clawed back, and the cost it paid —
// commits deferred overall and at Save-work decision points.
func (rp *Report) writeVeto(w io.Writer) {
	var vetoGroups []*Group
	for _, g := range rp.Agg.Groups() {
		if g.Key.Veto {
			vetoGroups = append(vetoGroups, g)
		}
	}
	if len(vetoGroups) == 0 {
		return
	}
	fmt.Fprintf(w, "\n## Commit veto\n\n")
	fmt.Fprintf(w, "Phase-2 runs re-executed under the mined dangerous-path commit veto,\n")
	fmt.Fprintf(w, "paired with their phase-1 baselines. \"clawed back\" counts Lose-work\n")
	fmt.Fprintf(w, "violations the veto prevented; \"vetoed\" the commits it deferred;\n")
	fmt.Fprintf(w, "\"save-work cost\" the deferrals at visible-output decision points.\n\n")
	fmt.Fprintf(w, "| study | app | protocol | kind | crashes | violations base→veto | clawed back | vetoed | save-work cost |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|---|\n")
	var totBase, totVeto, totN, totSW int64
	for _, g := range vetoGroups {
		baseKey := g.Key
		baseKey.Veto = false
		baseViol := int64(-1)
		if b := rp.Agg.byKey[baseKey]; b != nil {
			baseViol = b.LoseWork
		}
		baseCell, clawCell := "?", "?"
		if baseViol >= 0 {
			baseCell = strconv.FormatInt(baseViol, 10)
			clawCell = strconv.FormatInt(baseViol-g.LoseWork, 10)
			totBase += baseViol
			totVeto += g.LoseWork
		}
		totN += g.VetoN
		totSW += g.VetoSaveWork
		fmt.Fprintf(w, "| %s | %s | %s | %s | %d | %s→%d | %s | %d | %d |\n",
			g.Key.Study, g.Key.App, g.Key.Protocol, g.Key.Kind, g.Crashes,
			baseCell, g.LoseWork, clawCell, g.VetoN, g.VetoSaveWork)
	}
	fmt.Fprintf(w, "| **Total** | | | | | %d→%d | %d | %d | %d |\n",
		totBase, totVeto, totBase-totVeto, totN, totSW)
}

// writeFaultTable renders one fault study's per-kind violation matrix plus
// its heatmap, attribution and histogram sections.
func (rp *Report) writeFaultTable(w io.Writer, study string, groups []*Group, title, cellNote string) {
	apps, kinds := appsAndKinds(groups)
	fmt.Fprintf(w, "\n## %s\n\n", title)
	fmt.Fprintf(w, "Cell: %s.\n\n", cellNote)
	fmt.Fprintf(w, "| Fault type |")
	for _, app := range apps {
		fmt.Fprintf(w, " %s |", app)
	}
	fmt.Fprintf(w, "\n|---|")
	for range apps {
		fmt.Fprintf(w, "---|")
	}
	fmt.Fprintf(w, "\n")
	// A kind that never crashed has no rate: its cell reads "—" with the
	// run count, and the average over the kinds leaves it out.
	sum := make([]float64, len(apps))
	crashed := make([]int, len(apps))
	for _, kind := range kinds {
		fmt.Fprintf(w, "| %s |", kind)
		for i, app := range apps {
			g := findGroup(groups, app, kind)
			switch {
			case g == nil:
				fmt.Fprintf(w, " - |")
			case g.Crashes == 0:
				fmt.Fprintf(w, " — (%d runs) |", g.Runs)
			default:
				sum[i] += g.ViolationPct()
				crashed[i]++
				fmt.Fprintf(w, " %.0f%% (%d/%d) |", g.ViolationPct(), g.LoseWork, g.Crashes)
			}
		}
		fmt.Fprintf(w, "\n")
	}
	fmt.Fprintf(w, "| **Average** |")
	for i := range apps {
		if crashed[i] == 0 {
			fmt.Fprintf(w, " — |")
			continue
		}
		fmt.Fprintf(w, " %.0f%% |", sum[i]/float64(crashed[i]))
	}
	fmt.Fprintf(w, "\n")

	// Save-work conflicts: silent wrong output (table1) / propagation into
	// application state (table2).
	fmt.Fprintf(w, "\n| App | runs | crashes | save-work conflicts | recovered |\n|---|---|---|---|---|\n")
	for _, app := range apps {
		var runs, crashes, sw, rec int64
		for _, g := range groups {
			if g.Key.App != app {
				continue
			}
			runs += g.Runs
			crashes += g.Crashes
			sw += g.SaveWork
			rec += g.Recovered
		}
		fmt.Fprintf(w, "| %s | %d | %d | %d | %d |\n", app, runs, crashes, sw, rec)
	}

	rp.writeHeatmap(w, study, groups, apps)
	rp.writeAttribution(w, study, groups, apps)
	rp.writeHistograms(w, study, groups)
}

// writeHeatmap renders the per-injection-point outcome heatmap, one table
// per app with fault kinds merged.
func (rp *Report) writeHeatmap(w io.Writer, study string, groups []*Group, apps []string) {
	for _, app := range apps {
		var heat [obs.HistBuckets][int(outcomeCount)]int64
		for _, g := range groups {
			if g.Key.App != app {
				continue
			}
			for b := range g.Heat {
				for o := range g.Heat[b] {
					heat[b][o] += g.Heat[b][o]
				}
			}
		}
		fmt.Fprintf(w, "\n### Injection-point outcomes: %s/%s\n\n", study, app)
		fmt.Fprintf(w, "Rows bucket the armed fire point (log2); columns count run outcomes.\n\n")
		fmt.Fprintf(w, "| fire point | inert | ok | wrongout | crash |\n|---|---|---|---|---|\n")
		for b := range heat {
			total := int64(0)
			for _, c := range heat[b] {
				total += c
			}
			if total == 0 {
				continue
			}
			lo, hi := int64(0), int64(0)
			if b > 0 {
				lo = int64(1) << uint(b-1)
				hi = int64(1)<<uint(b) - 1
			}
			fmt.Fprintf(w, "| %d–%d | %d | %d | %d | %d |\n",
				lo, hi, heat[b][Inert], heat[b][Completed], heat[b][WrongOutput], heat[b][Crashed])
		}
	}
}

// writeAttribution renders the doomed-commit-index attribution, one table
// per app with fault kinds merged.
func (rp *Report) writeAttribution(w io.Writer, study string, groups []*Group, apps []string) {
	for _, app := range apps {
		doom := map[int]int64{}
		var doomed int64
		for _, g := range groups {
			if g.Key.App != app {
				continue
			}
			for i, c := range g.DoomIndex {
				doom[i] += c
				doomed += c
			}
		}
		if doomed == 0 {
			continue
		}
		idxs := make([]int, 0, len(doom))
		for i := range doom {
			idxs = append(idxs, i)
		}
		sort.Ints(idxs)
		fmt.Fprintf(w, "\n### Conflict attribution: %s/%s\n\n", study, app)
		fmt.Fprintf(w, "Which commit index is the first to land inside the violation window, and how often.\n\n")
		fmt.Fprintf(w, "| first violating commit | runs | share |\n|---|---|---|\n")
		for _, i := range idxs {
			fmt.Fprintf(w, "| #%d | %d | %.0f%% |\n", i, doom[i], 100*float64(doom[i])/float64(doomed))
		}
	}
}

// writeHistograms renders the study's merged cross-run histograms — the
// Histogram.Merge consumer: per-group histograms fold into study-wide ones.
func (rp *Report) writeHistograms(w io.Writer, study string, groups []*Group) {
	var rollback, commits, prefix obs.Histogram
	for _, g := range groups {
		rollback.Merge(&g.RollbackDepth)
		commits.Merge(&g.CommitsPerRun)
		prefix.Merge(&g.PrefixSteps)
	}
	fmt.Fprintf(w, "\n### Cross-run histograms: %s\n\n", study)
	fmt.Fprintf(w, "| histogram | count | mean | p50 | p99 | max |\n|---|---|---|---|---|---|\n")
	writeHistRow(w, "rollback depth (steps)", &rollback)
	writeHistRow(w, "commits per run", &commits)
	writeHistRow(w, "activation prefix (world steps)", &prefix)
}

// writeFig8 renders the protocol-sweep cells.
func (rp *Report) writeFig8(w io.Writer, groups []*Group) {
	fmt.Fprintf(w, "\n## Figure 8 cells (from ledger)\n\n")
	fmt.Fprintf(w, "| app | protocol | medium | runs | commits (mean) | vclock mean (s) |\n|---|---|---|---|---|---|\n")
	for _, g := range groups {
		fmt.Fprintf(w, "| %s | %s | %s | %d | %d | %.2f |\n",
			g.Key.App, g.Key.Protocol, g.Key.Medium, g.Runs, g.CommitsPerRun.Mean(),
			float64(g.VClockSum)/float64(g.Runs)/1e6)
	}
}

// writeGeneric renders any other study's outcome counts.
func (rp *Report) writeGeneric(w io.Writer, study string, groups []*Group) {
	fmt.Fprintf(w, "\n## Study %s\n\n", study)
	fmt.Fprintf(w, "| app | protocol | kind | runs | inert | ok | wrongout | crash | save-work | recovered |\n|---|---|---|---|---|---|---|---|---|---|\n")
	for _, g := range groups {
		fmt.Fprintf(w, "| %s | %s | %s | %d | %d | %d | %d | %d | %d | %d |\n",
			g.Key.App, g.Key.Protocol, g.Key.Kind, g.Runs, g.Inert, g.Completed,
			g.WrongOutput, g.Crashes, g.SaveWork, g.Recovered)
	}
	rp.writeHistograms(w, study, groups)
}

// writeMachines renders every mined machine's shape, its dangerous-path
// coloring, and the ledger-vs-algorithm cross-check verdict.
func (rp *Report) writeMachines(w io.Writer) {
	keys := rp.Miner.Keys()
	if len(keys) == 0 {
		return
	}
	fmt.Fprintf(w, "\n## Mined dangerous-path machines\n\n")
	fmt.Fprintf(w, "States are commit-count positions; coloring follows the paper's\n")
	fmt.Fprintf(w, "Single-Process Dangerous Paths Algorithm over the merged machine.\n\n")
	fmt.Fprintf(w, "| machine | runs | states | edges | dangerous commit edges | cross-checked | mismatches |\n|---|---|---|---|---|---|---|\n")
	for _, key := range keys {
		md := rp.Miner.Get(key)
		col := md.Coloring()
		m := md.Machine()
		dangerous := 0
		for i := range m.Edges {
			if m.Edges[i].Label == "commit" && col.Dangerous(statemachine.EventID(i)) {
				dangerous++
			}
		}
		fmt.Fprintf(w, "| %s | %d | %d | %d | %d | %d | %d |\n",
			key, md.Runs, m.NumStates, len(m.Edges), dangerous, md.Checked, md.Mismatched)
	}
	for _, key := range keys {
		md := rp.Miner.Get(key)
		if md.FirstMismatch != "" {
			fmt.Fprintf(w, "\n**%s cross-check mismatch:** %s\n", key, md.FirstMismatch)
		}
	}
}

// WriteMachineDot writes the Graphviz rendering of one mined machine's
// coloring (crash states black, dangerous edges red).
func (rp *Report) WriteMachineDot(w io.Writer, key string) error {
	md := rp.Miner.Get(key)
	if md == nil {
		return fmt.Errorf("ledger: no mined machine %q (have %v)", key, rp.Miner.Keys())
	}
	return md.Coloring().WriteDot(w, key)
}

// WriteCampaignTrace renders the campaign overview as Chrome trace-event
// JSON: one span per run, colored by outcome (the span category), laid out
// over the given number of virtual worker tracks. The ledger deliberately
// records no physical worker IDs (they would break byte-identity across
// worker counts), so tracks are synthesized deterministically: each run
// goes to the earliest-free track, with its logical world-step count as
// the span duration — a what-if schedule of the campaign at that width.
func (rp *Report) WriteCampaignTrace(w io.Writer, workers int) error {
	if workers < 1 {
		workers = 1
	}
	t := obs.NewTracer()
	for i := 0; i < workers; i++ {
		t.SetTrackName(i, "worker "+strconv.Itoa(i))
	}
	ends := make([]time.Duration, workers)
	for i := range rp.Recs {
		r := &rp.Recs[i]
		wk := 0
		for j := 1; j < workers; j++ {
			if ends[j] < ends[wk] {
				wk = j
			}
		}
		dur := time.Duration(r.WorldSteps) * time.Microsecond
		if dur <= 0 {
			dur = time.Microsecond
		}
		name := r.Study + "/" + r.App
		if r.Kind != "" {
			name += "/" + r.Kind
		} else if r.Protocol != "" {
			name += "/" + r.Protocol
		}
		t.SpanArgs(wk, "outcome:"+r.Outcome.String(), name, ends[wk], dur,
			"outcome", r.Outcome.String(), "run", int64(r.Run))
		ends[wk] += dur
	}
	return t.WriteJSON(w)
}
