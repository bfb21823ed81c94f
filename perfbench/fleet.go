package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"coopmrm/internal/fault"
	"coopmrm/internal/geom"
	"coopmrm/internal/scenario"
	"coopmrm/internal/sensor"
	"coopmrm/internal/traj"
)

// The fleet workload is one 200-pair status-sharing quarry with E18's
// staging (truck1_1 teleported to (150,0) and blinded at t=0, 5 s
// beacons, no shards), stepped tick by tick on one goroutine: the
// large-deployment workload. One pass builds the rig, runs tick 0
// (lazy first-tick work users pay every run) and fleetTicks steady
// ticks.
const (
	fleetPairs = 200
	fleetTicks = 1200
	// The traced run's benchmark-owned probes run every
	// fleetProbeEvery ticks; the planner probe, which scores against
	// the whole fleet and takes most of a second, every
	// fleetPlannerProbeEvery ticks.
	fleetProbeEvery        = 10
	fleetPlannerProbeEvery = 400
	// fleetTailP is the reported tail percentile; 1,000 steady ticks
	// leave ten beyond it.
	fleetTailP = 99
)

var fleetWorkload = workload{
	name:        "fleet",
	tailP:       fleetTailP,
	latencyWhat: "steady tick wall",
	pass:        fleetPass,
	names: map[string]issueName{
		"throughput_per_s": {"sim_speed", "sim-s/host-s", 0.1},
		"latency_p50_ms":   {"tick_p50_ms", "ms", 1},
		"latency_tail_ms":  {"tick_p99_ms", "ms", 1},
	},
	layers: fleetLayers,
}

// fleetPassIDs numbers passes so every tick's trace ID is unique.
var fleetPassIDs atomic.Int64

func fleetConfig(seed int64) scenario.QuarryConfig {
	return scenario.QuarryConfig{
		Pairs: fleetPairs, TrucksPerPair: 1,
		Policy:       scenario.PolicyStatusSharing,
		Seed:         seed,
		BeaconPeriod: 5 * time.Second,
	}
}

func fleetPass(dir string, seed int64, tr *tracer) (*pass, error) {
	return runFleet(fleetConfig(seed), fleetTicks, tr)
}

// runFleet builds, stages and steps one fleet rig.
func runFleet(cfg scenario.QuarryConfig, steady int, tr *tracer) (*pass, error) {
	p := &pass{attempted: 1}
	passID := fleetPassIDs.Add(1) << 20
	t0 := time.Now()
	rig, err := scenario.NewQuarry(cfg)
	if err != nil {
		return nil, err
	}
	victim := rig.Trucks[0]
	victim.Body().Teleport(geom.Pose{Pos: geom.V(150, 0)})
	victim.ApplyFault(fault.Fault{ID: "blind", Target: victim.ID(),
		Kind: fault.KindSensor, Severity: 1, Permanent: true})
	t1 := time.Now()

	var pm phaseMarks
	var pr *fleetProbe
	if tr != nil {
		pm.install(rig.Engine)
		pr = newFleetProbe(rig, cfg.Seed)
	}
	rig.Engine.RunTick()
	t2 := time.Now()
	p.setup = t2.Sub(t0)
	tr.add(0, passID, "scenario.build", t0, t1)
	tr.add(0, passID, "scenario.first_tick", t1, t2)
	if tr != nil {
		p.sample("scenario.build_ms", ms(t1.Sub(t0)))
		p.sample("scenario.first_tick_ms", ms(t2.Sub(t1)))
	}

	var wall time.Duration
	p.lat = make([]float64, 0, steady)
	// Label the steady ticks so a CPU profile of the run (--cpuprofile)
	// can be cut to the ticks the phase shares describe.
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels("fleet", "steady")))
	defer pprof.SetGoroutineLabels(context.Background())
	for i := 0; i < steady; i++ {
		start := time.Now()
		rig.Engine.RunTick()
		end := time.Now()
		wall += end.Sub(start)
		p.lat = append(p.lat, ms(end.Sub(start)))
		if tr == nil {
			continue
		}
		trace := passID + int64(i) + 1
		pre, ent, post := pm.phases(start, end)
		p.sample("sim.pre_hooks_ms", ms(pre))
		p.sample("sim.entities_ms", ms(ent))
		p.sample("sim.post_hooks_ms", ms(post))
		p.sample("comm.pending", float64(rig.Net.Pending()))
		tickID := tr.id()
		tr.add(tickID, trace, "sim.pre_hooks", start, pm.preEnd)
		tr.add(tickID, trace, "sim.entities", pm.preEnd, pm.entEnd)
		tr.add(tickID, trace, "sim.post_hooks", pm.entEnd, end)
		tr.record(tickID, 0, trace, "sim.tick", start, end)
		if i%fleetProbeEvery == 0 {
			pr.run(p, tr, trace, i%fleetPlannerProbeEvery == 0)
		}
	}
	pprof.SetGoroutineLabels(context.Background())
	p.wall = wall
	p.ops = float64(steady)

	t3 := time.Now()
	rep := rig.Collector.Report()
	t4 := time.Now()
	tr.add(0, passID, "metrics.report", t3, t4)

	log := rig.Engine.Env().Log
	sent, dropped := rig.Net.Stats()
	if tr != nil {
		hits, misses := rig.World.Graph().RouteCacheStats()
		p.sample("metrics.report_us", us(t4.Sub(t3)))
		p.sample("sim.events", float64(log.Len()))
		p.sample("sim.ticks", float64(steady+1))
		p.sample("comm.sent", float64(sent))
		p.sample("comm.dropped", float64(dropped))
		p.sample("world.route_hits", float64(hits))
		p.sample("world.route_misses", float64(misses))
	}

	h := sha256.New()
	enc := json.NewEncoder(h)
	if err := enc.Encode(log.Events()); err != nil {
		return nil, err
	}
	if err := enc.Encode(rep); err != nil {
		return nil, err
	}
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(rig.Delivered()))
	binary.LittleEndian.PutUint64(buf[8:], uint64(sent))
	binary.LittleEndian.PutUint64(buf[16:], uint64(dropped))
	h.Write(buf[:])
	p.digest = hex.EncodeToString(h.Sum(nil))
	return p, nil
}

// fleetProbe owns the planner, sensor suite and broad-phase grid the
// traced fleet run times against the live fleet. Probes read the
// rig's public state and never write to it.
type fleetProbe struct {
	rig     *scenario.QuarryRig
	planner *traj.Planner
	suite   *sensor.Suite
	grid    *geom.Grid
	radius  []float64
	obs     []traj.Obstacle
	targets []sensor.Target
	dets    []sensor.Detection
	pairs   [][2]int
}

// nearMissDist is metrics.Collector's default near-miss separation.
const nearMissDist = 1.0

func newFleetProbe(rig *scenario.QuarryRig, seed int64) *fleetProbe {
	all := rig.All()
	pr := &fleetProbe{rig: rig, planner: traj.New(seed, traj.DefaultConfig()),
		radius: make([]float64, len(all))}
	cell := 0.0
	for i, c := range all {
		spec := c.Body().Spec()
		pr.radius[i] = 0.5 * math.Hypot(spec.Length, spec.Width)
		cell = max(cell, 2*pr.radius[i]+nearMissDist)
	}
	pr.grid = geom.NewGrid(cell)
	probe := rig.Trucks[len(rig.Trucks)/2]
	pr.suite = sensor.StandardSuite(probe.Body().Spec().SensorRange)
	return pr
}

// run times one DetectInto and one CandidatePairs call and, with
// planner set, one ScoreStop.
func (pr *fleetProbe) run(p *pass, tr *tracer, trace int64, planner bool) {
	all := pr.rig.All()
	self := len(pr.rig.Diggers) + len(pr.rig.Trucks)/2
	b := all[self].Body()
	spec := b.Spec()
	pr.obs = pr.obs[:0]
	pr.targets = pr.targets[:0]
	for i, c := range all {
		cb := c.Body()
		if i != self {
			pr.obs = append(pr.obs, traj.Obstacle{ID: c.ID(), Pos: cb.Position(),
				Vel: cb.Pose().Forward().Scale(cb.Speed()), Radius: pr.radius[i]})
			pr.targets = append(pr.targets, sensor.Target{ID: c.ID(), Pos: cb.Position()})
		}
	}
	req := traj.Request{
		ID: all[self].ID(), Pose: b.Pose(), Speed: b.Speed(), SpeedCap: spec.MaxSpeed,
		Spec: spec, BrakeFactor: b.BrakeFactor(), Radius: pr.radius[self],
		World: pr.rig.World, FallbackRisk: 0.5, Obstacles: pr.obs,
	}

	if planner {
		t0 := time.Now()
		pr.planner.ScoreStop(req, spec.ServiceDecel*b.BrakeFactor())
		t1 := time.Now()
		tr.add(0, trace, "traj.score_stop", t0, t1)
		p.sample("traj.score_stop_us", us(t1.Sub(t0)))
		p.sample("traj.obstacles", float64(len(pr.obs)))
	}
	t1 := time.Now()
	pr.dets = pr.suite.DetectInto(pr.dets[:0], b.Position(), pr.targets)
	t2 := time.Now()
	pr.grid.Reset(pr.grid.CellSize())
	for i, c := range all {
		pr.grid.Insert(i, c.Body().Position())
	}
	pr.pairs = pr.grid.CandidatePairs(pr.pairs[:0])
	t3 := time.Now()

	useful := 0
	for _, q := range pr.pairs {
		gap := all[q[0]].Body().Position().Dist(all[q[1]].Body().Position()) -
			pr.radius[q[0]] - pr.radius[q[1]]
		if gap <= nearMissDist {
			useful++
		}
	}
	tr.add(0, trace, "sensor.detect", t1, t2)
	tr.add(0, trace, "geom.candidate_pairs", t2, t3)
	p.sample("sensor.detect_us", us(t2.Sub(t1)))
	p.sample("geom.candidate_pairs_us", us(t3.Sub(t2)))
	p.sample("geom.pairs", float64(len(pr.pairs)))
	p.sample("geom.useful", float64(useful))
}

func fleetLayers(m *measurement) map[string]float64 {
	s := m.samples
	pre, ent, post := s["sim.pre_hooks_ms"], s["sim.entities_ms"], s["sim.post_hooks_ms"]
	tick := sum(pre) + sum(ent) + sum(post)
	ticks := sum(s["sim.ticks"])
	sent := sum(s["comm.sent"])
	hits, misses := sum(s["world.route_hits"]), sum(s["world.route_misses"])
	out := map[string]float64{
		"scenario.build_ms":            median(s["scenario.build_ms"]),
		"scenario.first_tick_ms":       median(s["scenario.first_tick_ms"]),
		"sim.tick_us_p50":              1000 * percentile(m.lat, 50),
		"sim.pre_hooks_ms":             sum(pre),
		"sim.entities_ms":              sum(ent),
		"sim.post_hooks_ms":            sum(post),
		"sim.pre_hooks_us_per_tick":    1000 * mean(pre),
		"sim.entities_us_per_tick":     1000 * mean(ent),
		"sim.post_hooks_us_per_tick":   1000 * mean(post),
		"sim.pre_hooks_share":          share(sum(pre), tick),
		"sim.entities_share":           share(sum(ent), tick),
		"sim.post_hooks_share":         share(sum(post), tick),
		"sim.events":                   sum(s["sim.events"]),
		"sim.events_per_tick":          share(sum(s["sim.events"]), ticks),
		"metrics.sample_us_p50":        1000 * median(post),
		"metrics.report_us":            median(s["metrics.report_us"]),
		"comm.sent_per_tick":           share(sent, ticks),
		"comm.dropped_share":           share(sum(s["comm.dropped"]), sent),
		"comm.pending_max":             maxOf(s["comm.pending"]),
		"traj.score_stop_us":           median(s["traj.score_stop_us"]),
		"traj.obstacles":               median(s["traj.obstacles"]),
		"sensor.detect_us":             median(s["sensor.detect_us"]),
		"geom.candidate_pairs_us":      median(s["geom.candidate_pairs_us"]),
		"geom.pairs_useful_share":      share(sum(s["geom.useful"]), sum(s["geom.pairs"])),
		"world.route_cache_hit_share":  share(hits, hits+misses),
		"runtime.alloc_bytes_per_tick": share(m.allocBytes, m.allocOps),
	}
	// Where the time of the tail ticks goes: the phase split of the
	// ticks at or beyond the tail percentile against the median ticks.
	tail := percentile(m.lat, fleetTailP)
	var tp, te, tq, np, ne, nq float64
	for i, l := range m.lat {
		if i >= len(pre) {
			break
		}
		if l >= tail {
			tp, te, tq = tp+pre[i], te+ent[i], tq+post[i]
		} else {
			np, ne, nq = np+pre[i], ne+ent[i], nq+post[i]
		}
	}
	out["sim.tail_ticks_pre_hooks_share"] = share(tp, tp+te+tq)
	out["sim.tail_ticks_entities_share"] = share(te, tp+te+tq)
	out["sim.other_ticks_pre_hooks_share"] = share(np, np+ne+nq)
	out["sim.other_ticks_entities_share"] = share(ne, np+ne+nq)
	return out
}
