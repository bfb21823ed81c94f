package coopmrm

import (
	"strings"
	"testing"
	"time"

	"coopmrm/internal/scenario"
)

// These tests assert the *shape* each experiment must reproduce from
// the paper — who wins, what escalates, which capabilities exist —
// rather than absolute numbers.

func quick() Options { return Options{Quick: true, Seed: 1} }

func TestRegistry(t *testing.T) {
	es := AllExperiments()
	if len(es) != 20 {
		t.Fatalf("experiments = %d, want 20", len(es))
	}
	seen := map[string]bool{}
	for _, e := range es {
		if e.ID == "" || e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("experiment %+v incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate ID %s", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := ExperimentByID("E3"); !ok {
		t.Error("ExperimentByID failed")
	}
	if _, ok := ExperimentByID("E99"); ok {
		t.Error("unknown ID should fail")
	}
	if len(ExperimentIDs()) != 20 {
		t.Error("ExperimentIDs wrong")
	}
}

func TestTableHelpers(t *testing.T) {
	tab := Table{ID: "T", Title: "x", Header: []string{"a", "b"}}
	tab.AddRow("k1", "1.5")
	tab.AddRow("k2", "2.5")
	if tab.Cell(0, 1) != "1.5" || tab.Cell(9, 9) != "" {
		t.Error("Cell wrong")
	}
	if tab.CellFloat(1, 1) != 2.5 {
		t.Error("CellFloat wrong")
	}
	if _, ok := tab.CellFloatOK(0, 0); ok {
		t.Error("text cell must not parse as a float")
	}
	if tab.FindRow("k2") != 1 || tab.FindRow("zz") != -1 {
		t.Error("FindRow wrong")
	}
	out := tab.Render()
	if !strings.Contains(out, "T — x") || !strings.Contains(out, "k2") {
		t.Errorf("render: %s", out)
	}
}

// E1: without a secondary fault the AV reaches the best MRC (rest
// stop); an early secondary fault forces the fallback (shoulder) with
// exactly one switch, at higher residual risk (Fig. 1b).
func TestE1Shape(t *testing.T) {
	tab := RunE1(quick())
	none := tab.FindRow("none")
	early := tab.FindRow("t1+10s")
	if none < 0 || early < 0 {
		t.Fatalf("rows missing: %+v", tab.Rows)
	}
	if tab.Cell(none, 1) != "rest_stop" || tab.Cell(none, 2) != "0" {
		t.Errorf("no-secondary row = %v", tab.Rows[none])
	}
	if tab.Cell(early, 1) != "shoulder" || tab.Cell(early, 2) != "1" {
		t.Errorf("early-secondary row = %v", tab.Rows[early])
	}
	if tab.CellFloat(early, 3) <= tab.CellFloat(none, 3) {
		t.Error("fallback MRC must have higher residual risk")
	}
}

// E2: productivity rises and the safety case grows with granularity
// (Fig. 2's trade-off).
func TestE2Shape(t *testing.T) {
	tab := RunE2(quick())
	g := tab.FindRow("global_only")
	grp := tab.FindRow("per_group")
	con := tab.FindRow("per_constituent")
	if g < 0 || grp < 0 || con < 0 {
		t.Fatalf("rows missing: %+v", tab.Rows)
	}
	if !(tab.CellFloat(g, 2) < tab.CellFloat(grp, 2) && tab.CellFloat(grp, 2) < tab.CellFloat(con, 2)) {
		t.Errorf("productivity not increasing: %v %v %v",
			tab.Cell(g, 2), tab.Cell(grp, 2), tab.Cell(con, 2))
	}
	if !(tab.CellFloat(g, 5) < tab.CellFloat(grp, 5) && tab.CellFloat(grp, 5) < tab.CellFloat(con, 5)) {
		t.Errorf("obligations not increasing: %v %v %v",
			tab.Cell(g, 5), tab.Cell(grp, 5), tab.Cell(con, 5))
	}
}

// E3: every class's observed capabilities match Table I.
func TestE3MatchesTableI(t *testing.T) {
	tab := RunE3(quick())
	for _, row := range tab.Rows {
		if row[0] == scenario.PolicyBaseline.String() {
			continue
		}
		if row[4] != "yes" {
			t.Errorf("class %s does not match Table I: %v", row[0], row)
		}
	}
	// Spot checks straight from the paper.
	r := tab.FindRow("status_sharing")
	if tab.Cell(r, 2) != "no" {
		t.Error("status-sharing must not have global MRCs")
	}
	r = tab.FindRow("orchestrated")
	if tab.Cell(r, 2) != "yes" || tab.Cell(r, 3) != "yes" {
		t.Error("orchestrated must have global and concerted")
	}
}

// E4: the four Sec. III-B cases classify as the paper describes, with
// zero interventions (none of them is an MRC needing recovery, except
// (iii) whose MRC is local and left unrecovered).
func TestE4Shape(t *testing.T) {
	tab := RunE4(quick())
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if got := tab.Cell(0, 2); got != "degraded_permanent" {
		t.Errorf("(i) = %q", got)
	}
	if got := tab.Cell(1, 2); got != "degraded_temporary" {
		t.Errorf("(ii) = %q", got)
	}
	if !strings.Contains(tab.Cell(2, 2), "local MRC") {
		t.Errorf("(iii) = %q", tab.Cell(2, 2))
	}
	if !strings.Contains(tab.Cell(3, 3), "handovers 1") {
		t.Errorf("(iv) = %q", tab.Cell(3, 3))
	}
	if !strings.Contains(tab.Cell(3, 3), "100%") {
		t.Errorf("(iv) system speed should be kept: %q", tab.Cell(3, 3))
	}
}

// E5: the two-level hierarchy salvages productivity after the first
// trigger; both policies end fully safe.
func TestE5Shape(t *testing.T) {
	tab := RunE5(quick())
	two := tab.FindRow("two_level_hierarchy")
	one := tab.FindRow("global_only")
	if two < 0 || one < 0 {
		t.Fatalf("rows: %+v", tab.Rows)
	}
	if tab.CellFloat(two, 2) <= tab.CellFloat(one, 2) {
		t.Errorf("two-level should deliver more after the trigger: %v vs %v",
			tab.Cell(two, 2), tab.Cell(one, 2))
	}
	if tab.Cell(two, 4) != "yes" || tab.Cell(one, 4) != "yes" {
		t.Error("both policies must end safe")
	}
}

// E6: status-sharing reroutes and keeps delivering; the baseline
// blocks.
func TestE6Shape(t *testing.T) {
	tab := RunE6(quick())
	base := tab.FindRow("baseline")
	status := tab.FindRow("status_sharing")
	if tab.CellFloat(status, 1) <= tab.CellFloat(base, 1) {
		t.Errorf("status-sharing must out-deliver baseline: %v vs %v",
			tab.Cell(status, 1), tab.Cell(base, 1))
	}
	if tab.Cell(status, 4) != "yes" || tab.Cell(base, 4) != "no" {
		t.Error("reroute flags wrong")
	}
}

// E7: intent-sharing increases the ego's separation during its MRM
// through early adaptation.
func TestE7Shape(t *testing.T) {
	tab := RunE7(quick())
	base := tab.FindRow("baseline")
	intent := tab.FindRow("intent_sharing")
	if tab.Cell(base, 1) != "shoulder" || tab.Cell(intent, 1) != "shoulder" {
		t.Errorf("ego should reach the shoulder in all arms: %+v", tab.Rows)
	}
	if tab.CellFloat(intent, 2) <= tab.CellFloat(base, 2) {
		t.Errorf("intent-sharing should raise ego separation: %v vs %v",
			tab.Cell(intent, 2), tab.Cell(base, 2))
	}
	if tab.CellFloat(intent, 3) < 1 {
		t.Error("intent-sharing should produce early reactions")
	}
	if v, ok := tab.CellFloatOK(base, 3); !ok || v != 0 {
		t.Errorf("baseline cannot produce early reactions: %q", tab.Cell(base, 3))
	}
}

// E8: consent leads to a concerted shoulder MRM; no consent falls
// back to the in-lane stop; the evacuation reaches a global MRC.
func TestE8Shape(t *testing.T) {
	tab := RunE8(quick())
	if !strings.Contains(tab.Cell(0, 3), "shoulder") || tab.Cell(0, 2) != "yes" {
		t.Errorf("granted row = %v", tab.Rows[0])
	}
	if !strings.Contains(tab.Cell(1, 3), "in_lane") {
		t.Errorf("no-consent row = %v", tab.Rows[1])
	}
	if !strings.Contains(tab.Cell(2, 1), "6 constituents") {
		t.Errorf("evacuation row = %v", tab.Rows[2])
	}
}

// E9: local pocket order stops one truck only; non-compliance falls
// back to the vehicle's own MRC; the flood order stops everyone.
func TestE9Shape(t *testing.T) {
	tab := RunE9(quick())
	if tab.Cell(0, 1) != "local" || !strings.Contains(tab.Cell(0, 4), "pocket") {
		t.Errorf("pocket row = %v", tab.Rows[0])
	}
	if !strings.Contains(tab.Cell(1, 4), "in_place") {
		t.Errorf("non-compliance row = %v", tab.Rows[1])
	}
	if !strings.Contains(tab.Cell(2, 2), "6/6") {
		t.Errorf("flood row = %v", tab.Rows[2])
	}
}

// E10: truck loss stays local with continued deliveries; digger loss
// and the common cause go global with zero deliveries after.
func TestE10Shape(t *testing.T) {
	tab := RunE10(quick())
	if tab.Cell(0, 1) != "local" || tab.CellFloat(0, 4) <= 0 {
		t.Errorf("(a) = %v", tab.Rows[0])
	}
	if v, ok := tab.CellFloatOK(1, 3); tab.Cell(1, 1) != "global" || !ok || v != 0 {
		t.Errorf("(b) = %v", tab.Rows[1])
	}
	if tab.Cell(2, 1) != "global" || tab.CellFloat(2, 2) != 6 {
		t.Errorf("(c) = %v", tab.Rows[2])
	}
}

// E11: shorter deadlines detect faster; detection latency is bounded
// by the deadline plus one haul cycle.
func TestE11Shape(t *testing.T) {
	tab := RunE11(quick())
	if len(tab.Rows) < 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	l60 := tab.CellFloat(0, 2)
	l120 := tab.CellFloat(1, 2)
	if l60 != 0 && l120 != 0 && l60 >= l120 {
		t.Errorf("latency should grow with deadline: %v vs %v", l60, l120)
	}
}

// E12: local truck loss keeps the TMS productive; digger loss goes
// global; the concerted park ends at lower residual risk than the
// immediate halt.
func TestE12Shape(t *testing.T) {
	tab := RunE12(quick())
	if tab.Cell(0, 2) != "no" || tab.CellFloat(0, 1) <= 0 {
		t.Errorf("(a) = %v", tab.Rows[0])
	}
	if tab.Cell(1, 2) != "yes" || tab.Cell(2, 2) != "yes" {
		t.Error("digger loss must be global in both styles")
	}
	halt := tab.CellFloat(1, 3)
	park := tab.CellFloat(2, 3)
	if park >= halt {
		t.Errorf("concerted park must end at lower risk: park %v vs halt %v", park, halt)
	}
}

// E13: the Definition 3 invariant holds across randomized episodes.
func TestE13Invariant(t *testing.T) {
	tab := RunE13(quick())
	if tab.Cell(0, 2) != "0" {
		t.Errorf("invariant violations: %v", tab.Rows[0])
	}
	if tab.Cell(0, 0) != tab.Cell(0, 1) {
		t.Errorf("all trials should complete: %v", tab.Rows[0])
	}
}

// E14: every interacting class delivers at least as much as the
// baseline on the same campaign.
func TestE14Shape(t *testing.T) {
	tab := RunE14(quick())
	base := tab.FindRow("baseline")
	if base < 0 {
		t.Fatal("baseline row missing")
	}
	baseDel := tab.CellFloat(base, 1)
	for _, row := range tab.Rows {
		if row[0] == "baseline" {
			continue
		}
		if tab.CellFloat(tab.FindRow(row[0]), 1) < baseDel {
			t.Errorf("%s delivered less than baseline: %v < %v", row[0], row[1], baseDel)
		}
	}
}

// E15: autonomous recovery resumes the goal with zero interventions
// on a one-shot transient, while the manual arm consumes one
// intervention per constituent; flapping weather exposes thrashing.
func TestE15Shape(t *testing.T) {
	tab := RunE15(quick())
	manual := tab.FindRow("manual (Defs. 1-2)")
	auto := tab.FindRow("autonomous (transient)")
	flap := tab.FindRow("autonomous (flapping)")
	if manual < 0 || auto < 0 || flap < 0 {
		t.Fatalf("rows: %+v", tab.Rows)
	}
	if tab.CellFloat(manual, 2) == 0 {
		t.Error("manual arm must consume interventions")
	}
	if v, ok := tab.CellFloatOK(auto, 2); !ok || v != 0 || tab.CellFloat(auto, 3) == 0 {
		t.Errorf("autonomous arm: interventions %v, recoveries %v",
			tab.Cell(auto, 2), tab.Cell(auto, 3))
	}
	if tab.CellFloat(auto, 4) < tab.CellFloat(manual, 4) {
		t.Error("autonomous recovery should not deliver less than the delayed manual recovery")
	}
	if tab.CellFloat(flap, 1) <= tab.CellFloat(auto, 1) {
		t.Error("flapping weather must produce more MRC cycles")
	}
}

// E16: the cooperation payoff (status-sharing minus baseline
// throughput) must be non-negative at every fleet size and strictly
// larger at the biggest deployment than the smallest — the scale
// argument the sweep exists to make.
func TestE16Shape(t *testing.T) {
	tab := RunE16(quick())
	if len(tab.Rows) < 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for i, row := range tab.Rows {
		gap := tab.CellFloat(i, 4)
		if gap < 0 {
			t.Errorf("pairs=%s: cooperation gap negative: %v", row[0], gap)
		}
	}
	first := tab.CellFloat(0, 4)
	last := tab.CellFloat(len(tab.Rows)-1, 4)
	if last <= first {
		t.Errorf("cooperation gap should widen with fleet size: %v (pairs=%s) vs %v (pairs=%s)",
			first, tab.Rows[0][0], last, tab.Rows[len(tab.Rows)-1][0])
	}
}

// Ablation shapes: the design-choice sensitivities documented in
// DESIGN.md.
func TestA1Shape(t *testing.T) {
	tab := RunA1(quick())
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Risk non-increasing, duration non-decreasing with depth.
	for i := 1; i < len(tab.Rows); i++ {
		if tab.CellFloat(i, 3) > tab.CellFloat(i-1, 3) {
			t.Errorf("risk increased with depth at row %d", i)
		}
		if tab.CellFloat(i, 4) < tab.CellFloat(i-1, 4) {
			t.Errorf("MRM duration decreased with depth at row %d", i)
		}
	}
	if tab.Cell(0, 2) != "emergency" || tab.Cell(3, 2) != "rest_stop" {
		t.Errorf("endpoints wrong: %v / %v", tab.Rows[0], tab.Rows[3])
	}
}

func TestA2Shape(t *testing.T) {
	tab := RunA2(quick())
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Reroute delay grows with the beacon period.
	if !(tab.CellFloat(0, 2) < tab.CellFloat(2, 2)) {
		t.Errorf("delay not increasing: %v vs %v", tab.Cell(0, 2), tab.Cell(2, 2))
	}
}

func TestA3Shape(t *testing.T) {
	tab := RunA3(quick())
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Longest patience must not out-deliver the shortest.
	if tab.CellFloat(2, 1) > tab.CellFloat(0, 1) {
		t.Errorf("30s patience out-delivered 2s: %v vs %v", tab.Cell(2, 1), tab.Cell(0, 1))
	}
}

func TestA4Shape(t *testing.T) {
	tab := RunA4(quick())
	if tab.Cell(0, 2) != "yes" || tab.Cell(0, 1) != "shoulder" {
		t.Errorf("lossless row = %v", tab.Rows[0])
	}
	last := len(tab.Rows) - 1
	if tab.Cell(last, 2) != "no" || tab.Cell(last, 1) != "in_lane" {
		t.Errorf("high-loss row = %v", tab.Rows[last])
	}
	if tab.CellFloat(last, 3) <= tab.CellFloat(0, 3) {
		t.Error("losing agreement must cost stop risk")
	}
}

func TestAblationRegistry(t *testing.T) {
	if len(AllAblations()) != 5 {
		t.Error("ablations = 5 expected")
	}
	if _, ok := AblationByID("A1"); !ok {
		t.Error("AblationByID failed")
	}
	if _, ok := AblationByID("A9"); ok {
		t.Error("unknown ablation should fail")
	}
}

// A5: cumulative risk exposure grows with the MRC resolution time —
// the "rate of resolving the MRC" factor of the adopted definition.
func TestA5Shape(t *testing.T) {
	tab := RunA5(quick())
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for i := 1; i < len(tab.Rows); i++ {
		if tab.CellFloat(i, 2) <= tab.CellFloat(i-1, 2) {
			t.Errorf("risk exposure not increasing with response time: %v then %v",
				tab.Cell(i-1, 2), tab.Cell(i, 2))
		}
	}
	if tab.CellFloat(0, 3) == 0 {
		t.Error("the crew should intervene at least once")
	}
}

func TestTableCSVAndMarkdown(t *testing.T) {
	tab := Table{ID: "T", Title: "demo", Paper: "Fig. X",
		Header: []string{"a", "b"}, Note: "n"}
	tab.AddRow("x|y", "2")
	csvOut := tab.CSV()
	if !strings.Contains(csvOut, "a,b\n") || !strings.Contains(csvOut, "x|y,2\n") {
		t.Errorf("csv = %q", csvOut)
	}
	md := tab.Markdown()
	for _, want := range []string{"**T — demo**", "| a | b |", "|---|---|", `x\|y`, "_n_"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}

// E17: chaos campaign shapes. For every interaction class, zero-loss
// productivity must degrade monotonically with blackout duration, the
// V2X classes' drop share must grow with it, and the no-comms classes
// (baseline, choreographed) must be untouched by the partition.
func TestE17Shape(t *testing.T) {
	tab := RunE17(quick())
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
	// Collect the zero-loss, zero-reorder rows per class, in sweep
	// order (ascending partition duration).
	type arm struct{ partition, deliveries, dropShare float64 }
	byClass := map[string][]arm{}
	var order []string
	for i, row := range tab.Rows {
		if tab.Cell(i, 2) != "0" || tab.Cell(i, 3) != "0" {
			continue
		}
		if _, seen := byClass[row[0]]; !seen {
			order = append(order, row[0])
		}
		byClass[row[0]] = append(byClass[row[0]],
			arm{tab.CellFloat(i, 1), tab.CellFloat(i, 4), tab.CellFloat(i, 6)})
	}
	if len(order) != 8 {
		t.Fatalf("classes = %d (%v), want all 8", len(order), order)
	}
	const tol = 0.11 // one unit is 1.0; absorb rounding only
	for _, class := range order {
		arms := byClass[class]
		if len(arms) < 3 {
			t.Fatalf("%s: %d zero-chaos arms, want the full duration sweep", class, len(arms))
		}
		v2x := class != "baseline" && class != "choreographed"
		for i := 1; i < len(arms); i++ {
			if arms[i].partition <= arms[i-1].partition {
				t.Fatalf("%s: durations not ascending: %+v", class, arms)
			}
			if arms[i].deliveries > arms[i-1].deliveries+tol {
				t.Errorf("%s: productivity rose with blackout duration: %v -> %v",
					class, arms[i-1].deliveries, arms[i].deliveries)
			}
			if v2x && arms[i].dropShare < arms[i-1].dropShare {
				t.Errorf("%s: drop share fell with blackout duration: %v -> %v",
					class, arms[i-1].dropShare, arms[i].dropShare)
			}
			if !v2x {
				if arms[i].deliveries != arms[0].deliveries {
					t.Errorf("%s: partition changed a no-comms class: %+v", class, arms)
				}
				if arms[i].dropShare != 0 {
					t.Errorf("%s: no-comms class dropped messages: %+v", class, arms)
				}
			}
		}
		// The longest blackout must hurt the V2X classes for real, not
		// just within tolerance (locks the experiment's signal).
		if v2x && !(arms[len(arms)-1].deliveries < arms[0].deliveries) {
			t.Errorf("%s: longest blackout did not reduce productivity: %+v", class, arms)
		}
	}
}

// TestE18Shape: the quick sweep covers {50, 200} pairs × {baseline,
// status_sharing} with two constituents per pair, and at each size
// status sharing never costs productivity or safety against the
// stranded truck. The quick 30 s horizon is too short for any truck
// to finish a haul cycle (both arms read 0.00 units/min), so the
// strict productivity gain is checked at the full 60 s horizon.
func TestE18Shape(t *testing.T) {
	tab := RunE18(quick())
	var got []string
	for _, row := range tab.Rows {
		got = append(got, row[0]+"/"+row[2])
	}
	want := "50/baseline 50/status_sharing 200/baseline 200/status_sharing"
	if strings.Join(got, " ") != want {
		t.Fatalf("rows = %v, want %s", got, want)
	}
	for i := 0; i < len(tab.Rows); i += 2 {
		pairs := tab.Rows[i][0]
		for _, r := range []int{i, i + 1} {
			if tab.CellFloat(r, 1) != 2*tab.CellFloat(r, 0) {
				t.Errorf("row %d: constituents = %s for %s pairs", r, tab.Cell(r, 1), tab.Cell(r, 0))
			}
		}
		if tab.CellFloat(i+1, 3) < tab.CellFloat(i, 3) {
			t.Errorf("pairs=%s: status sharing lost productivity: %s < %s", pairs, tab.Cell(i+1, 3), tab.Cell(i, 3))
		}
		if tab.CellFloat(i+1, 4) > tab.CellFloat(i, 4) {
			t.Errorf("pairs=%s: status sharing raised near misses: %s > %s", pairs, tab.Cell(i+1, 4), tab.Cell(i, 4))
		}
	}
	if testing.Short() {
		return
	}
	for _, pairs := range []int{50, 200} {
		base := runE18Arm(quick(), pairs, scenario.PolicyBaseline, 60*time.Second)
		coop := runE18Arm(quick(), pairs, scenario.PolicyStatusSharing, 60*time.Second)
		if !(coop.delivered > base.delivered) {
			t.Errorf("pairs=%d: status sharing delivered %v units in 60 s, baseline %v",
				pairs, coop.delivered, base.delivered)
		}
		if coop.nearMisses > base.nearMisses {
			t.Errorf("pairs=%d: status sharing near misses %d > baseline %d",
				pairs, coop.nearMisses, base.nearMisses)
		}
	}
}
