package main

import (
	"strconv"
	"sync"
	"time"

	"coopmrm"
	"coopmrm/internal/fault"
	"coopmrm/internal/scenario"
	"coopmrm/internal/sim"
)

// e19Replica is the traced campaign's stand-in for coopmrm.RunE19:
// it rebuilds E19's per-cell rigs through public scenario calls,
// steps them tick by tick with phase marks, reads the collector's
// report and folds the same inner seeds with SweepSeedsStream. Its
// table is byte-identical to RunE19's (checked by the digest of every
// traced pass and by TestE19ReplicaMatchesRunE19).
type e19Replica struct {
	tr *tracer
	p  *pass
	mu *sync.Mutex // guards p across the campaign's workers
}

// tickSampleEvery thins the campaign's per-tick spans and tick-time
// samples; the phase totals cover every tick.
const tickSampleEvery = 256

// The E19 axes, in RunE19's order.
var e19Classes = []struct {
	label  string
	policy scenario.PolicyKind
}{
	{"individual", scenario.PolicyBaseline},
	{"cooperative", scenario.PolicyStatusSharing},
	{"collaborative", scenario.PolicyCoordinated},
}

var e19Faults = []struct {
	label    string
	kind     fault.Kind
	severity float64
}{
	{"sensor_blind", fault.KindSensor, 1.0},
	{"steering_loss", fault.KindSteering, 1.0},
	{"brake_severe", fault.KindBrake, 0.92},
}

// runE19 is RunE19 for an outer seed; job is the runner.job span the
// cells nest under.
func (d *e19Replica) runE19(opt coopmrm.Options, job int64) coopmrm.Table {
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	n := 10
	if opt.Quick {
		n = 3
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = opt.Seed + int64(i)
	}
	outer := opt.Seed
	inner := coopmrm.Experiment{
		ID:    "E19",
		Title: "transition risk per interaction class and fault mode",
		Paper: "planner extension (quantified Definition 3 risk)",
		Run:   func(o coopmrm.Options) coopmrm.Table { return d.runSeed(o, outer, job) },
	}
	opt.Artifacts = nil
	tab, err := coopmrm.SweepSeedsStream(inner, opt, seeds, 1, coopmrm.CampaignConfig{})
	if err != nil {
		panic(err)
	}
	return tab
}

// runSeed is E19's per-seed table: one quarry run per (class, fault)
// cell.
func (d *e19Replica) runSeed(opt coopmrm.Options, trace, job int64) coopmrm.Table {
	t := coopmrm.Table{
		ID:     "E19",
		Title:  "transition risk per interaction class and fault mode",
		Paper:  "planner extension (quantified Definition 3 risk)",
		Header: []string{"class", "fault", "manoeuvres", "risk_mean", "risk_max", "mrm_switches", "replans", "units_per_min"},
		Note:   "truck1_1 faulted at t=30s, permanent; risk_mean/risk_max are the measured per-manoeuvre transition risks (planned trajectories and scored scripted stops alike)",
	}
	horizon := 3 * time.Minute
	if opt.Quick {
		horizon = 90 * time.Second
	}
	for _, class := range e19Classes {
		for _, fm := range e19Faults {
			t.AddRow(d.runCell(scenario.QuarryConfig{
				Pairs: 2, TrucksPerPair: 1,
				Policy: class.policy,
				Seed:   opt.Seed,
				Shards: opt.Shards,
				Faults: []fault.Fault{{
					ID: "e19", Target: "truck1_1", Kind: fm.kind,
					Severity: fm.severity, Permanent: true, At: 30 * time.Second,
				}},
			}, horizon, trace, job, class.label, fm.label)...)
		}
	}
	return t
}

// runCell runs one cell and returns its table row.
func (d *e19Replica) runCell(cfg scenario.QuarryConfig, horizon time.Duration,
	trace, job int64, labels ...string) []string {
	tr := d.tr
	t0 := time.Now()
	rig, err := scenario.NewQuarry(cfg)
	if err != nil {
		panic(err)
	}
	t1 := time.Now()
	tr.add(job, trace, "scenario.acquire", t0, t1)

	var pm phaseMarks
	pm.install(rig.Engine)
	var pre, ent, post time.Duration
	var ticks, pendingMax int
	var tickUS, sampleUS []float64
	simID := tr.id()
	clock := rig.Engine.Env().Clock
	deadline := clock.Now() + horizon
	for clock.Now() < deadline {
		start := time.Now()
		rig.Engine.RunTick()
		end := time.Now()
		a, b, c := pm.phases(start, end)
		pre += a
		ent += b
		post += c
		pendingMax = max(pendingMax, rig.Net.Pending())
		if ticks%tickSampleEvery == 0 {
			tickUS = append(tickUS, us(end.Sub(start)))
			sampleUS = append(sampleUS, us(c))
			tickID := tr.id()
			tr.add(tickID, trace, "sim.pre_hooks", start, pm.preEnd)
			tr.add(tickID, trace, "sim.entities", pm.preEnd, pm.entEnd)
			tr.add(tickID, trace, "sim.post_hooks", pm.entEnd, end)
			tr.record(tickID, simID, trace, "sim.tick", start, end)
		}
		ticks++
	}
	t2 := time.Now()
	tr.record(simID, job, trace, "sim.run", t1, t2)
	rep := rig.Collector.Report()
	t3 := time.Now()
	tr.add(job, trace, "metrics.report", t2, t3)

	log := rig.Engine.Env().Log
	replans := 0
	for _, c := range rig.All() {
		replans += c.Replans()
	}
	sent, dropped := rig.Net.Stats()
	hits, misses := rig.World.Graph().RouteCacheStats()

	d.mu.Lock()
	p := d.p
	p.sample("scenario.acquire_us", us(t1.Sub(t0)))
	p.sample("sim.ticks", float64(ticks))
	p.sample("sim.pre_ms", ms(pre))
	p.sample("sim.entities_ms", ms(ent))
	p.sample("sim.post_ms", ms(post))
	p.sample("sim.events", float64(log.Len()))
	p.samples["sim.tick_us"] = append(p.samples["sim.tick_us"], tickUS...)
	p.samples["metrics.sample_us"] = append(p.samples["metrics.sample_us"], sampleUS...)
	p.sample("metrics.report_us", us(t3.Sub(t2)))
	p.sample("comm.sent", float64(sent))
	p.sample("comm.dropped", float64(dropped))
	p.sample("comm.pending_max", float64(pendingMax))
	p.sample("core.manoeuvres", float64(rep.Manoeuvres))
	p.sample("core.replans", float64(replans))
	p.sample("world.route_hits", float64(hits))
	p.sample("world.route_misses", float64(misses))
	d.mu.Unlock()

	return append(labels,
		strconv.Itoa(rep.Manoeuvres),
		f2(rep.TransitionRiskMean),
		f2(rep.TransitionRiskMax),
		strconv.Itoa(log.Count(sim.EventMRMSwitched)),
		strconv.Itoa(replans),
		f2(rig.Delivered()/horizon.Minutes()))
}

func f2(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }
