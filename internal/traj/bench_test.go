package traj_test

import (
	"math"
	"testing"
	"time"

	"coopmrm/internal/geom"
	"coopmrm/internal/scenario"
	"coopmrm/internal/traj"
	"coopmrm/internal/vehicle"
	"coopmrm/internal/world"
)

// campaignRequest is a planning problem the size of an E19 campaign
// cell: a refuge route through a small site with three other
// constituents, one parked on the route and two driving.
func campaignRequest() traj.Request {
	w := world.New()
	zone := world.Zone{ID: "refuge", Kind: world.ZoneParking,
		Area: geom.NewRect(geom.V(70, 10), geom.V(95, 35))}
	w.MustAddZone(zone)
	spec := vehicle.DefaultSpec(vehicle.KindTruck)
	return traj.Request{
		ID: "t1", Route: geom.MustPath(geom.V(0, 0), geom.V(60, 0), geom.V(80, 20)),
		Pose: geom.Pose{Pos: geom.V(0, 0)}, Speed: 6, SpeedCap: spec.MaxSpeed,
		Spec: spec, BrakeFactor: 1, Radius: 2, World: w, Zone: zone, FallbackRisk: 0.3,
		Obstacles: []traj.Obstacle{
			{ID: "d1", Pos: geom.V(40, 2), Radius: 3},
			{ID: "t2", Pos: geom.V(90, 0), Vel: geom.V(-4, 0), Radius: 2},
			{ID: "t3", Pos: geom.V(20, -30), Vel: geom.V(0, 3), Radius: 2},
		},
	}
}

// fleetRequest is E18's staging at 200 pairs: truck1_1 teleported to
// (150, 0) scores its stop against the other 399 constituents, the
// request behind the 400-constituent quarry's first tick.
func fleetRequest(b *testing.B) traj.Request {
	rig, err := scenario.NewQuarry(scenario.QuarryConfig{
		Pairs: 200, TrucksPerPair: 1, Policy: scenario.PolicyStatusSharing,
		Seed: 1, BeaconPeriod: 5 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	victim := rig.Trucks[0]
	victim.Body().Teleport(geom.Pose{Pos: geom.V(150, 0)})
	radius := func(s vehicle.Spec) float64 { return 0.5 * math.Hypot(s.Length, s.Width) }
	var obs []traj.Obstacle
	for _, c := range rig.All() {
		if c == victim {
			continue
		}
		cb := c.Body()
		obs = append(obs, traj.Obstacle{ID: c.ID(), Pos: cb.Position(),
			Vel: cb.Pose().Forward().Scale(cb.Speed()), Radius: radius(cb.Spec())})
	}
	vb := victim.Body()
	return traj.Request{
		ID: victim.ID(), Pose: vb.Pose(), Speed: vb.Speed(), SpeedCap: vb.Spec().MaxSpeed,
		Spec: vb.Spec(), BrakeFactor: vb.BrakeFactor(), Radius: radius(vb.Spec()),
		World: rig.World, FallbackRisk: 0.5, Obstacles: obs,
	}
}

// sinkCandidate keeps the benchmarked calls from being optimised away.
var sinkCandidate traj.Candidate

// BenchmarkScoreStop times one in-place stop scored against the
// predicted obstacle paths, at campaign size (3 obstacles) and at fleet
// size (399 obstacles, E18 staging).
func BenchmarkScoreStop(b *testing.B) {
	for _, bc := range []struct {
		name string
		req  func(*testing.B) traj.Request
	}{
		{"campaign_3obs", func(*testing.B) traj.Request { return campaignRequest() }},
		{"fleet_399obs", fleetRequest},
	} {
		b.Run(bc.name, func(b *testing.B) {
			req := bc.req(b)
			p := traj.New(1, traj.DefaultConfig())
			decel := req.Spec.ServiceDecel * req.BrakeFactor
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkCandidate = p.ScoreStop(req, decel)
			}
		})
	}
}

// BenchmarkPlan times one full planning event at campaign size: the
// nominal candidate plus eleven sampled ones, built, scored and ranked.
func BenchmarkPlan(b *testing.B) {
	req := campaignRequest()
	p := traj.New(1, traj.DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkCandidate, _ = p.Plan(req)
	}
}
