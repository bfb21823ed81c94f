package coopmrm

import (
	"fmt"
	"sort"

	"coopmrm/internal/artifact"
)

// Options tunes experiment runs.
type Options struct {
	// Seed drives all randomness (default 1).
	Seed int64
	// Quick shrinks sweeps and horizons for benchmarks and CI.
	Quick bool
	// Artifacts, when non-nil, collects machine-readable snapshots of
	// the rig runs an experiment performs (see Options.Observe). Jobs
	// must never share a recorder; the parallel harness attaches one
	// per job.
	Artifacts *artifact.Recorder
	// Deprecated: Shards is read nowhere; every rig steps
	// sequentially and runs parallelise across seeds instead. It
	// remains only so existing callers compile.
	Shards int
	// ReuseRigs serves campaign rigs from the warm-rig pool: a parked
	// rig is Reset to the requested seed instead of constructed from
	// scratch (internal/scenario.AcquireQuarry). This is an
	// operational knob — reset output is byte-identical to fresh
	// construction (the warm-rig differentials), so tables, bundles
	// and checkpoints do not depend on it; only wall time changes.
	ReuseRigs bool
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Experiment is one entry of the per-experiment index in DESIGN.md.
type Experiment struct {
	ID    string
	Title string
	Paper string
	Run   func(Options) Table
}

// AllExperiments returns the full E1..E20 index in order.
func AllExperiments() []Experiment {
	return []Experiment{
		{"E1", "Individual MRM/MRC hierarchy with mid-MRM fallback", "Fig. 1a/1b", RunE1},
		{"E2", "MRC granularity: productivity vs safety-case size", "Fig. 2", RunE2},
		{"E3", "Taxonomy matrix: MRM/MRC capability per class", "Table I", RunE3},
		{"E4", "Degradation vs MRC classification, cases (i)-(iv)", "Sec. III-B", RunE4},
		{"E5", "Harbour MRC1->MRC2 escalation", "Sec. III-C", RunE5},
		{"E6", "Status-sharing reroute around a stranded truck", "Sec. IV-A", RunE6},
		{"E7", "Intent-sharing during a shoulder MRM", "Sec. IV-A", RunE7},
		{"E8", "Agreement-seeking: gap consent and evacuation", "Sec. IV-A", RunE8},
		{"E9", "Prescriptive: pocket order and flood shutdown", "Sec. IV-A", RunE9},
		{"E10", "Coordinated: local, global and common-cause MRCs", "Sec. IV-B", RunE10},
		{"E11", "Choreographed: check-in deadlines and designed responses", "Sec. IV-B", RunE11},
		{"E12", "Orchestrated: TMS rerouting and global MRC styles", "Sec. IV-B", RunE12},
		{"E13", "Concerted MRM invariant (Definition 3)", "Def. 3", RunE13},
		{"E14", "Every class vs the individual-AV baseline", "Sec. I motivation", RunE14},
		{"E15", "Autonomous recovery from transient MRCs", "Sec. V future work", RunE15},
		{"E16", "Fleet-size scale sweep: cooperation payoff per deployment size", "scale extension (deployment-level evaluation)", RunE16},
		{"E17", "V2X chaos: partition duration x loss x reorder per class", "design: V2X robustness", RunE17},
		{"E18", "Mega-fleet scale sweep, 50-2000 pairs", "scale extension (infrastructure-level fleets)", RunE18},
		{"E19", "Transition risk per interaction class and fault mode", "planner extension (quantified Definition 3 risk)", RunE19},
		{"E20", "Campaign throughput: warm-rig pool vs fresh construction", "perf extension (snapshot/reset rig reuse)", RunE20},
	}
}

// ExperimentByID returns the experiment with the given ID.
func ExperimentByID(id string) (Experiment, bool) {
	for _, e := range AllExperiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// ExperimentIDs returns all IDs sorted in index order.
func ExperimentIDs() []string {
	es := AllExperiments()
	ids := make([]string, len(es))
	for i, e := range es {
		ids[i] = e.ID
	}
	return ids
}

// sortedKeys is a small helper for deterministic map iteration in
// experiment code.
func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func pct(v float64) string { return fmt.Sprintf("%.0f%%", v*100) }
