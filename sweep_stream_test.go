package coopmrm

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"coopmrm/internal/artifact"
)

// syntheticArm builds a cheap deterministic experiment whose table has
// the given shape and whose numeric cells vary per seed — the
// workload for campaign-scale tests where a real rig run per seed
// would dominate the clock without exercising anything new in the
// aggregation path (the sweep machinery never looks inside Run).
func syntheticArm(rows, cols int) Experiment {
	return Experiment{
		ID:    "SYN",
		Title: "synthetic quick arm",
		Paper: "test fixture",
		Run: func(opt Options) Table {
			rng := rand.New(rand.NewSource(opt.Seed))
			tab := Table{ID: "SYN", Title: "synthetic quick arm", Paper: "test fixture",
				Note: "fixture"}
			for c := 0; c < cols; c++ {
				tab.Header = append(tab.Header, fmt.Sprintf("c%d", c))
			}
			for r := 0; r < rows; r++ {
				row := make([]string, cols)
				row[0] = fmt.Sprintf("arm%d", r)
				for c := 1; c < cols; c++ {
					row[c] = strconv.FormatFloat(float64(r*cols+c)+rng.Float64(), 'f', 3, 64)
				}
				tab.AddRow(row...)
			}
			return tab
		},
	}
}

// randomTableArm generates per-seed tables drawing every cell position
// from a fixed per-position generator mode — constant, numeric,
// percent, small categorical, non-finite, occasionally-missing — so a
// sweep over it exercises every aggregation rule, including ragged
// tables and cells that turn non-numeric mid-campaign.
func randomTableArm(structSeed int64, rows, cols int) Experiment {
	srng := rand.New(rand.NewSource(structSeed))
	modes := make([][]int, rows)
	for r := range modes {
		modes[r] = make([]int, cols)
		for c := range modes[r] {
			modes[r][c] = srng.Intn(6)
		}
	}
	return Experiment{
		ID: "RND", Title: "randomized differential arm", Paper: "test fixture",
		Run: func(opt Options) Table {
			rng := rand.New(rand.NewSource(opt.Seed * 7919))
			tab := Table{ID: "RND", Title: "randomized differential arm",
				Paper: "test fixture", Note: "random fixture"}
			for c := 0; c < cols; c++ {
				tab.Header = append(tab.Header, fmt.Sprintf("c%d", c))
			}
			// Ragged: some seeds emit one row fewer, so the final row's
			// cells mix "" with values across the campaign.
			emitRows := rows
			if rng.Intn(4) == 0 {
				emitRows--
			}
			for r := 0; r < emitRows; r++ {
				row := make([]string, cols)
				for c := 0; c < cols; c++ {
					switch modes[r][c] {
					case 0:
						row[c] = "constant"
					case 1:
						row[c] = strconv.FormatFloat(10*rng.Float64(), 'f', 2, 64)
					case 2:
						row[c] = fmt.Sprintf("%.1f%%", 100*rng.Float64())
					case 3:
						row[c] = []string{"yes", "no", "degraded"}[rng.Intn(3)]
					case 4:
						// Mostly numeric, occasionally non-finite: the
						// cell must fall to varies(n) exactly as the
						// oracle does.
						if rng.Intn(8) == 0 {
							row[c] = []string{"NaN", "+Inf"}[rng.Intn(2)]
						} else {
							row[c] = strconv.FormatFloat(rng.Float64(), 'f', 2, 64)
						}
					case 5:
						// Identical across seeds but numeric-looking.
						row[c] = "42"
					}
				}
				tab.AddRow(row...)
			}
			return tab
		},
	}
}

// parseMeanSD splits an aggregated cell "m±s[%][ …]" into its mean and
// sd numbers and unit.
func parseMeanSD(t *testing.T, cell string) (mean, sd float64, pct bool) {
	t.Helper()
	body, _, _ := strings.Cut(cell, " [")
	m, s, ok := strings.Cut(body, "±")
	if !ok {
		t.Fatalf("cell %q is not mean±sd", cell)
	}
	pct = strings.HasSuffix(s, "%")
	s = strings.TrimSuffix(s, "%")
	mean, err1 := strconv.ParseFloat(m, 64)
	sd, err2 := strconv.ParseFloat(s, 64)
	if err1 != nil || err2 != nil {
		t.Fatalf("cell %q: bad mean/sd", cell)
	}
	return mean, sd, pct
}

// The randomized differential guarantee of the streaming campaign:
// per-cell Welford aggregation renders what the retained two-pass
// oracle (AggregateSeedTables) renders — verbatim cells and varies(n)
// exactly, numeric cells within one formatting quantum (Welford and
// two-pass differ in floating-point rounding, never more) — on tables
// mixing numeric, percent, categorical, non-finite and missing cells.
func TestSweepStreamMatchesRetainedOracle(t *testing.T) {
	for structSeed := int64(1); structSeed <= 5; structSeed++ {
		e := randomTableArm(structSeed, 6, 5)
		seeds := make([]int64, 40)
		for i := range seeds {
			seeds[i] = int64(i + 1)
		}

		tables := make([]Table, len(seeds))
		for i, s := range seeds {
			tables[i] = e.Run(Options{Seed: s})
		}
		oracle := AggregateSeedTables(tables, seeds)

		stream, err := SweepSeedsStream(e, Options{}, seeds, 4, CampaignConfig{})
		if err != nil {
			t.Fatal(err)
		}

		if len(stream.Rows) != len(oracle.Rows) {
			t.Fatalf("structSeed %d: rows %d vs oracle %d", structSeed, len(stream.Rows), len(oracle.Rows))
		}
		for r := range oracle.Rows {
			for c := range oracle.Rows[r] {
				oc, sc := oracle.Cell(r, c), stream.Cell(r, c)
				if !strings.Contains(oc, "±") {
					// Verbatim and varies(n) cells must match exactly.
					if sc != oc {
						t.Errorf("structSeed %d cell (%d,%d): stream %q, oracle %q", structSeed, r, c, sc, oc)
					}
					continue
				}
				om, osd, opct := parseMeanSD(t, oc)
				sm, ssd, spct := parseMeanSD(t, sc)
				if math.Abs(om-sm) > 0.011 || math.Abs(osd-ssd) > 0.011 || opct != spct {
					t.Errorf("structSeed %d cell (%d,%d): stream %q vs oracle %q", structSeed, r, c, sc, oc)
				}
				if !strings.Contains(sc, fmt.Sprintf("[n=%d, ci=", len(seeds))) {
					t.Errorf("structSeed %d cell (%d,%d): missing [n, ci] annotation: %q", structSeed, r, c, sc)
				}
			}
		}
	}
}

// Streaming must be independent of the worker count: the fold happens
// in seed order whatever order jobs complete in.
func TestSweepStreamWorkerCountInvariant(t *testing.T) {
	e := randomTableArm(7, 4, 4)
	seeds := []int64{3, 5, 9, 11, 20, 21, 22, 30}
	serial, err := SweepSeedsStream(e, Options{}, seeds, 1, CampaignConfig{})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := SweepSeedsStream(e, Options{}, seeds, 8, CampaignConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Render() != parallel.Render() {
		t.Errorf("streaming sweep differs between 1 and 8 workers:\n%s\nvs\n%s",
			serial.Render(), parallel.Render())
	}
	if !strings.Contains(serial.Note, "3..30 (8 seeds, sparse)") {
		t.Errorf("sparse seed span missing from note: %q", serial.Note)
	}
}

// The kill-and-resume differential: a campaign aborted mid-flight and
// resumed from its checkpoint must render the byte-identical table of
// an uninterrupted campaign over the same seeds — on a real quick-arm
// experiment, through the real checkpoint file.
func TestSweepStreamKillAndResumeByteIdentical(t *testing.T) {
	e, ok := ExperimentByID("E1")
	if !ok {
		t.Fatal("E1 missing")
	}
	opt := Options{Quick: true}
	seeds := make([]int64, 12)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}

	uninterrupted, err := SweepSeedsStream(e, opt, seeds, 2, CampaignConfig{})
	if err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "campaign.json")
	kill := fmt.Errorf("simulated kill")
	_, err = SweepSeedsStream(e, opt, seeds, 2, CampaignConfig{
		Checkpoint: ckpt,
		Every:      4,
		OnFold: func(done, total int) error {
			if done >= 6 {
				return kill
			}
			return nil
		},
	})
	if err == nil {
		t.Fatal("aborted campaign should report the abort")
	}

	// The checkpoint must hold the last periodic write (4 folds), not
	// the abort point — exactly what a SIGKILL would have left.
	c, err := artifact.ReadCampaign(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if c.Completed != 4 {
		t.Fatalf("checkpoint completed = %d, want 4", c.Completed)
	}

	resumed, err := SweepSeedsStream(e, opt, seeds, 2, CampaignConfig{
		Checkpoint: ckpt, Every: 4, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Render() != uninterrupted.Render() {
		t.Errorf("resumed table differs from uninterrupted:\n%s\nvs\n%s",
			resumed.Render(), uninterrupted.Render())
	}

	// The completion checkpoint makes a re-resume a no-op campaign
	// that still renders identically without re-running any seed.
	again, err := SweepSeedsStream(e, opt, seeds, 2, CampaignConfig{
		Checkpoint: ckpt, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if again.Render() != uninterrupted.Render() {
		t.Error("resume of a completed campaign differs")
	}
}

// Kill-and-resume across the warm/cold rig boundary: a campaign that
// folds its first seeds on pool-served warm rigs (Options.ReuseRigs),
// dies, and resumes on fresh-construction cold rigs must still render
// byte-identically to an uninterrupted all-cold campaign. The rig
// source is an operational knob, so a checkpoint written by one must
// be seamlessly continuable by the other — E19 is the arm because its
// per-seed cell actually goes through the warm-rig pool.
func TestSweepStreamKillResumeWarmColdMix(t *testing.T) {
	e, ok := ExperimentByID("E19")
	if !ok {
		t.Fatal("E19 missing")
	}
	opt := Options{Quick: true}
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}

	uninterrupted, err := SweepSeedsStream(e, opt, seeds, 2, CampaignConfig{})
	if err != nil {
		t.Fatal(err)
	}

	warmOpt := opt
	warmOpt.ReuseRigs = true
	ckpt := filepath.Join(t.TempDir(), "campaign.json")
	_, err = SweepSeedsStream(e, warmOpt, seeds, 2, CampaignConfig{
		Checkpoint: ckpt,
		Every:      2,
		OnFold: func(done, total int) error {
			if done >= 4 {
				return fmt.Errorf("simulated kill")
			}
			return nil
		},
	})
	if err == nil {
		t.Fatal("aborted campaign should report the abort")
	}

	resumed, err := SweepSeedsStream(e, opt, seeds, 2, CampaignConfig{
		Checkpoint: ckpt, Every: 2, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Render() != uninterrupted.Render() {
		t.Errorf("warm-then-cold resumed table differs from all-cold uninterrupted:\n%s\nvs\n%s",
			resumed.Render(), uninterrupted.Render())
	}
}

// A checkpoint from a different campaign must be rejected, not folded
// into incompatible statistics.
func TestSweepStreamResumeValidation(t *testing.T) {
	e := syntheticArm(3, 3)
	seeds := []int64{1, 2, 3, 4}
	ckpt := filepath.Join(t.TempDir(), "campaign.json")
	if _, err := SweepSeedsStream(e, Options{}, seeds, 1, CampaignConfig{
		Checkpoint: ckpt, Every: 2,
	}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		e     Experiment
		opt   Options
		seeds []int64
	}{
		{"different experiment", randomTableArm(1, 3, 3), Options{}, seeds},
		{"different quick", e, Options{Quick: true}, seeds},
		{"different seed count", e, Options{}, []int64{1, 2, 3}},
		{"different seed list", e, Options{}, []int64{1, 2, 3, 5}},
	}
	for _, tc := range cases {
		if _, err := SweepSeedsStream(tc.e, tc.opt, tc.seeds, 1, CampaignConfig{
			Checkpoint: ckpt, Resume: true,
		}); err == nil {
			t.Errorf("%s: resume should reject mismatched checkpoint", tc.name)
		}
	}
	// Resume with no checkpoint file yet is a fresh campaign.
	fresh := filepath.Join(t.TempDir(), "missing.json")
	if _, err := SweepSeedsStream(e, Options{}, seeds, 1, CampaignConfig{
		Checkpoint: fresh, Resume: true,
	}); err != nil {
		t.Errorf("resume without an existing checkpoint should start fresh: %v", err)
	}
}

// The memory claim of the tentpole, at campaign scale: a 10⁵-seed
// streaming sweep holds O(rows×cols) state — peak live heap during the
// campaign stays under a pinned budget that is independent of the
// seed count — while the retained path's live set grows linearly with
// the seed count (shown at 10k vs 20k tables).
func TestSweepStreamMemoryFlatAt1e5Seeds(t *testing.T) {
	if testing.Short() {
		t.Skip("10⁵-seed campaign: skipped with -short")
	}
	e := syntheticArm(8, 6)
	seeds := make([]int64, 100_000)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}

	heapNow := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := heapNow()

	var peak uint64
	table, err := SweepSeedsStream(e, Options{}, seeds, 4, CampaignConfig{
		OnFold: func(done, total int) error {
			if done%20_000 == 0 {
				if h := heapNow(); h > peak {
					peak = h
				}
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 8 || !strings.Contains(table.Cell(0, 1), "[n=100000, ci=") {
		t.Fatalf("campaign table wrong:\n%s", table.Render())
	}

	// Budget: the accumulator grid is 48 cells; 32 MiB of slack is
	// orders of magnitude above O(rows×cols) state and orders of
	// magnitude below what retaining 10⁵ tables costs (~hundreds of
	// MiB, see the linear-growth measurement below).
	const budget = 32 << 20
	grew := int64(peak) - int64(base)
	if grew > budget {
		t.Errorf("streaming campaign peak heap grew %d MiB, budget %d MiB",
			grew>>20, budget>>20)
	}

	// The retained path: live heap while holding n tables (what
	// SweepSeeds accumulates before aggregating) grows linearly in n.
	retained := func(n int) uint64 {
		tables := make([]Table, n)
		for i := range tables {
			tables[i] = e.Run(Options{Seed: int64(i + 1)})
		}
		h := heapNow()
		runtime.KeepAlive(tables)
		return h
	}
	before := heapNow()
	at10k := retained(10_000) - before
	at20k := retained(20_000) - before
	if at20k < at10k*3/2 {
		t.Errorf("retained path should grow linearly: 10k tables = %d KiB, 20k tables = %d KiB",
			at10k>>10, at20k>>10)
	}
	t.Logf("streaming peak: +%d KiB over baseline at 100k seeds; retained live set: %d KiB at 10k, %d KiB at 20k",
		grew>>10, at10k>>10, at20k>>10)
}

// The campaign/v1 round trip preserves the accumulator exactly: a
// state serialized mid-campaign and reloaded folds the remaining
// seeds to the byte-identical table (the unit-level core of the
// kill-and-resume guarantee, without the pool).
func TestCampaignStateRoundTrip(t *testing.T) {
	e := randomTableArm(3, 5, 4)
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}

	full := &campaignState{}
	for _, s := range seeds {
		full.fold(e.Run(Options{Seed: s}))
	}

	half := &campaignState{}
	for _, s := range seeds[:4] {
		half.fold(e.Run(Options{Seed: s}))
	}
	path := filepath.Join(t.TempDir(), "c.json")
	if err := artifact.WriteCampaign(path, half.toCampaign(e, Options{}, seeds)); err != nil {
		t.Fatal(err)
	}
	c, err := artifact.ReadCampaign(path)
	if err != nil {
		t.Fatal(err)
	}
	reloaded := stateFromCampaign(c)
	for _, s := range seeds[4:] {
		reloaded.fold(e.Run(Options{Seed: s}))
	}
	if got, want := reloaded.render(seeds).Render(), full.render(seeds).Render(); got != want {
		t.Errorf("round-tripped state renders differently:\n%s\nvs\n%s", got, want)
	}
}

// The distinct-set cap: a divergent non-numeric cell with more
// distinct values than the cap renders the capped marker instead of
// growing O(seeds) state.
func TestCellAccumDistinctCap(t *testing.T) {
	c := newCellAccum()
	for i := 0; i < distinctCap+10; i++ {
		c.add(fmt.Sprintf("mode-%d", i))
	}
	if got := c.render(); got != fmt.Sprintf("varies(%d+)", distinctCap) {
		t.Errorf("overflowed cell renders %q", got)
	}
	if len(c.distinct) > distinctCap {
		t.Errorf("distinct set grew past the cap: %d", len(c.distinct))
	}
}

// TestSweepStreamDrainCheckpointsFoldedState is the graceful-drain
// counterpart of the kill test above: an OnFold abort that wraps
// ErrCampaignDrain gets a *final* checkpoint at the abort point — no
// folded seed is lost — where a plain abort keeps SIGKILL semantics
// (only the last periodic write survives).
func TestSweepStreamDrainCheckpointsFoldedState(t *testing.T) {
	e, ok := ExperimentByID("E1")
	if !ok {
		t.Fatal("E1 missing")
	}
	opt := Options{Quick: true}
	seeds := make([]int64, 12)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}

	uninterrupted, err := SweepSeedsStream(e, opt, seeds, 2, CampaignConfig{})
	if err != nil {
		t.Fatal(err)
	}

	// Every=1000 never checkpoints periodically: whatever the
	// checkpoint holds after the abort was written by the drain path.
	ckpt := filepath.Join(t.TempDir(), "campaign.json")
	_, err = SweepSeedsStream(e, opt, seeds, 2, CampaignConfig{
		Checkpoint: ckpt,
		Every:      1000,
		OnFold: func(done, total int) error {
			if done >= 5 {
				return fmt.Errorf("shutting down: %w", ErrCampaignDrain)
			}
			return nil
		},
	})
	if err == nil {
		t.Fatal("drained campaign should report the abort")
	}

	c, err := artifact.ReadCampaign(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if c.Completed != 5 {
		t.Fatalf("drain checkpoint completed = %d, want 5 (the abort point)", c.Completed)
	}

	resumed, err := SweepSeedsStream(e, opt, seeds, 2, CampaignConfig{
		Checkpoint: ckpt, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Render() != uninterrupted.Render() {
		t.Errorf("drained-and-resumed table differs from uninterrupted:\n%s\nvs\n%s",
			resumed.Render(), uninterrupted.Render())
	}
}

// parentCheckpoints are campaign/v1 checkpoints written before the
// sharded tick engine was removed, by campaigns run with Shards: 4 on
// seeds 1..4 and killed after the first checkpoint (2 seeds folded).
// The "shards" field they carry is no longer part of the schema.
var parentCheckpoints = map[string]string{
	"E1": `{
	"schema": "coopmrm/campaign/v1",
	"experiment": "E1",
	"quick": true,
	"shards": 4,
	"seeds": [1,2,3,4],
	"completed": 2,
	"title": "individual MRM/MRC hierarchy with mid-MRM fallback",
	"paper": "Fig. 1a/1b",
	"note": "primary trigger: snow exits the road ODD at t=30s; secondary: propulsion failure at the given offset after the MRM start",
	"header": ["secondary_fault","final_MRC","mrm_switches","stop_risk","mrm_duration_s"],
	"cells": [
		[
			{"n":2,"first":"none","all_same":true,"numeric":false,"all_pct":false,"mean":0,"m2":0,"distinct":["none"]},
			{"n":2,"first":"rest_stop","all_same":true,"numeric":false,"all_pct":false,"mean":0,"m2":0,"distinct":["rest_stop"]},
			{"n":2,"first":"0","all_same":true,"numeric":true,"all_pct":false,"mean":0,"m2":0,"distinct":["0"]},
			{"n":2,"first":"0.19","all_same":true,"numeric":true,"all_pct":false,"mean":0.19,"m2":0,"distinct":["0.19"]},
			{"n":2,"first":"93.7","all_same":false,"numeric":true,"all_pct":false,"mean":100.25,"m2":85.80499999999992,"distinct":["106.8","93.7"]}
		],
		[
			{"n":2,"first":"t1+10s","all_same":true,"numeric":false,"all_pct":false,"mean":0,"m2":0,"distinct":["t1+10s"]},
			{"n":2,"first":"shoulder","all_same":true,"numeric":false,"all_pct":false,"mean":0,"m2":0,"distinct":["shoulder"]},
			{"n":2,"first":"1","all_same":true,"numeric":true,"all_pct":false,"mean":1,"m2":0,"distinct":["1"]},
			{"n":2,"first":"0.49","all_same":true,"numeric":true,"all_pct":false,"mean":0.49,"m2":0,"distinct":["0.49"]},
			{"n":2,"first":"36.4","all_same":false,"numeric":true,"all_pct":false,"mean":31.35,"m2":51.004999999999995,"distinct":["26.3","36.4"]}
		]
	]
}`,
	"E16": `{
	"schema": "coopmrm/campaign/v1",
	"experiment": "E16",
	"quick": true,
	"shards": 4,
	"seeds": [1,2,3,4],
	"completed": 2,
	"title": "fleet-size scale sweep: cooperation payoff per deployment size",
	"paper": "scale extension (deployment-level evaluation)",
	"note": "truck1_1 is stranded blind mid-tunnel at t=0 and blocks the haul road; baseline trucks queue, status-sharing trucks reroute via alt",
	"header": ["pairs","constituents","base_units_per_min","coop_units_per_min","gap_units_per_min","coop_near_misses"],
	"cells": [
		[
			{"n":2,"first":"2","all_same":true,"numeric":true,"all_pct":false,"mean":2,"m2":0,"distinct":["2"]},
			{"n":2,"first":"4","all_same":true,"numeric":true,"all_pct":false,"mean":4,"m2":0,"distinct":["4"]},
			{"n":2,"first":"0.00","all_same":true,"numeric":true,"all_pct":false,"mean":0,"m2":0,"distinct":["0.00"]},
			{"n":2,"first":"0.50","all_same":true,"numeric":true,"all_pct":false,"mean":0.5,"m2":0,"distinct":["0.50"]},
			{"n":2,"first":"0.50","all_same":true,"numeric":true,"all_pct":false,"mean":0.5,"m2":0,"distinct":["0.50"]},
			{"n":2,"first":"0","all_same":true,"numeric":true,"all_pct":false,"mean":0,"m2":0,"distinct":["0"]}
		],
		[
			{"n":2,"first":"6","all_same":true,"numeric":true,"all_pct":false,"mean":6,"m2":0,"distinct":["6"]},
			{"n":2,"first":"12","all_same":true,"numeric":true,"all_pct":false,"mean":12,"m2":0,"distinct":["12"]},
			{"n":2,"first":"0.00","all_same":true,"numeric":true,"all_pct":false,"mean":0,"m2":0,"distinct":["0.00"]},
			{"n":2,"first":"2.50","all_same":true,"numeric":true,"all_pct":false,"mean":2.5,"m2":0,"distinct":["2.50"]},
			{"n":2,"first":"2.50","all_same":true,"numeric":true,"all_pct":false,"mean":2.5,"m2":0,"distinct":["2.50"]},
			{"n":2,"first":"0","all_same":true,"numeric":true,"all_pct":false,"mean":0,"m2":0,"distinct":["0"]}
		],
		[
			{"n":2,"first":"10","all_same":true,"numeric":true,"all_pct":false,"mean":10,"m2":0,"distinct":["10"]},
			{"n":2,"first":"20","all_same":true,"numeric":true,"all_pct":false,"mean":20,"m2":0,"distinct":["20"]},
			{"n":2,"first":"0.00","all_same":true,"numeric":true,"all_pct":false,"mean":0,"m2":0,"distinct":["0.00"]},
			{"n":2,"first":"3.50","all_same":true,"numeric":true,"all_pct":false,"mean":3.5,"m2":0,"distinct":["3.50"]},
			{"n":2,"first":"3.50","all_same":true,"numeric":true,"all_pct":false,"mean":3.5,"m2":0,"distinct":["3.50"]},
			{"n":2,"first":"0","all_same":true,"numeric":true,"all_pct":false,"mean":0,"m2":0,"distinct":["0"]}
		]
	]
}`,
}

// A campaign/v1 checkpoint written with a "shards" option still loads
// and resumes: the sharded engine never changed output bytes, so the
// resumed table must equal an uninterrupted run's.
func TestSweepStreamResumesShardedCheckpoint(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	opt := Options{Quick: true}
	for id, data := range parentCheckpoints {
		t.Run(id, func(t *testing.T) {
			e, ok := ExperimentByID(id)
			if !ok {
				t.Fatalf("%s missing", id)
			}
			uninterrupted, err := SweepSeedsStream(e, opt, seeds, 2, CampaignConfig{})
			if err != nil {
				t.Fatal(err)
			}
			ckpt := filepath.Join(t.TempDir(), "campaign.json")
			if err := os.WriteFile(ckpt, []byte(data), 0o644); err != nil {
				t.Fatal(err)
			}
			resumed, err := SweepSeedsStream(e, opt, seeds, 2, CampaignConfig{
				Checkpoint: ckpt, Resume: true,
				OnFold: func(done, total int) error {
					if done <= 2 {
						return fmt.Errorf("seed %d re-folded despite the checkpoint", done)
					}
					return nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Render() != uninterrupted.Render() {
				t.Errorf("resumed table differs from uninterrupted:\n%s\nvs\n%s",
					resumed.Render(), uninterrupted.Render())
			}
		})
	}
}
