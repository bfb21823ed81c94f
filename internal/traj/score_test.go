package traj

import (
	"math"
	"math/rand"
	"testing"

	"coopmrm/internal/geom"
	"coopmrm/internal/vehicle"
	"coopmrm/internal/world"
)

// gridScore is the grid-enumerating scorer the bipartite scan replaced,
// kept as the differential oracle: every candidate sample and every
// predicted obstacle sample go into one geom.Grid of cell SafeDist, all
// candidate pairs are enumerated, and only (obstacle, candidate) pairs
// within one time bin of each other contribute their closeness.
func gridScore(p *Planner, cands []Candidate, req Request) {
	nBins := int(p.cfg.Horizon/p.cfg.SampleDT) + 1
	nObs := len(req.Obstacles)
	obsEnd := nObs * nBins
	if nObs > 0 {
		grid := geom.NewGrid(p.cfg.SafeDist)
		var sitePos []geom.Vec2
		for oi, ob := range req.Obstacles {
			for t := 0; t < nBins; t++ {
				pos := ob.Pos.Add(ob.Vel.Scale(float64(t) * p.cfg.SampleDT))
				grid.Insert(oi*nBins+t, pos)
				sitePos = append(sitePos, pos)
			}
		}
		for ci := range cands {
			for t, pos := range cands[ci].Samples {
				grid.Insert(obsEnd+ci*nBins+t, pos)
			}
		}
		for _, pr := range grid.CandidatePairs(nil) {
			a, b := pr[0], pr[1]
			if (a < obsEnd) == (b < obsEnd) {
				continue
			}
			binA := a % nBins
			ci := (b - obsEnd) / nBins
			binB := (b - obsEnd) % nBins
			if binA-binB > 1 || binB-binA > 1 {
				continue
			}
			gap := sitePos[a].Dist(cands[ci].Samples[binB]) -
				req.Obstacles[a/nBins].Radius - cands[ci].Radius
			closeness := geom.Clamp((p.cfg.SafeDist-gap)/p.cfg.SafeDist, 0, 1)
			if closeness > cands[ci].Proximity {
				cands[ci].Proximity = closeness
			}
		}
	}
	for i := range cands {
		c := &cands[i]
		c.ZoneRisk = p.stopRisk(req, c)
		c.Comfort = comfort(c, req.Spec, p.cfg.LateralMax)
		c.Risk = geom.Clamp(
			p.cfg.WProximity*c.Proximity+p.cfg.WZone*c.ZoneRisk+p.cfg.WComfort*c.Comfort,
			0, 1)
	}
}

// entryPoint runs one scoring entry point on a fresh planner and
// returns the scored candidates plus the request the oracle must score
// them against (HoldCandidates scores with NoStop set).
type entryPoint struct {
	name string
	run  func(p *Planner, req Request) ([]Candidate, Request)
}

var entryPoints = []entryPoint{
	{"Candidates", func(p *Planner, req Request) ([]Candidate, Request) {
		return p.Candidates(req), req
	}},
	{"ScoreStop", func(p *Planner, req Request) ([]Candidate, Request) {
		return []Candidate{p.ScoreStop(req, 0.7*req.Spec.ServiceDecel)}, req
	}},
	{"ScoreRemaining", func(p *Planner, req Request) ([]Candidate, Request) {
		cands := p.Candidates(req)
		if len(cands) == 0 {
			return nil, req
		}
		last := cands[len(cands)-1]
		return []Candidate{p.ScoreRemaining(req, last, 0.3*last.Path.Len())}, req
	}},
	{"HoldCandidates", func(p *Planner, req Request) ([]Candidate, Request) {
		hold := req
		hold.NoStop = true
		return p.HoldCandidates(req, []float64{0, 1.5, 4, 9}), hold
	}},
}

// scoreDiff runs the entry point with the planner's scan and checks the
// result against the grid oracle bit for bit. It returns the scored
// candidates.
func scoreDiff(t *testing.T, ep entryPoint, seed int64, cfg Config, req Request) []Candidate {
	t.Helper()
	p := New(seed, cfg)
	got, oreq := ep.run(p, req)
	want := make([]Candidate, len(got))
	for i, c := range got {
		c.Proximity, c.ZoneRisk, c.Comfort, c.Risk = 0, 0, 0, 0
		want[i] = c
	}
	gridScore(p, want, oreq)
	for i := range got {
		if math.Float64bits(got[i].Proximity) != math.Float64bits(want[i].Proximity) ||
			math.Float64bits(got[i].Risk) != math.Float64bits(want[i].Risk) {
			t.Fatalf("%s seed %d candidate %d: scan proximity %v risk %v, grid oracle %v / %v\nrequest %+v",
				ep.name, seed, i, got[i].Proximity, got[i].Risk, want[i].Proximity, want[i].Risk, req)
		}
	}
	return got
}

// randomRequest draws a planning problem around the origin: a short
// polyline route (so stop profiles often end before the horizon),
// vertices snapped to cell boundaries a third of the time, negative
// coordinates as often as positive ones.
func randomRequest(rng *rand.Rand, cell float64) Request {
	snap := func(v float64) float64 {
		if rng.Intn(3) == 0 {
			return math.Round(v/cell) * cell
		}
		return v
	}
	pts := []geom.Vec2{geom.V(snap(rng.Float64()*300-150), snap(rng.Float64()*300-150))}
	for i := 0; i < 1+rng.Intn(3); i++ {
		last := pts[len(pts)-1]
		step, ang := 6+rng.Float64()*70, rng.Float64()*2*math.Pi
		pts = append(pts, geom.V(snap(last.X+step*math.Cos(ang)), snap(last.Y+step*math.Sin(ang))))
	}
	route, err := geom.NewPath(pts...)
	if err != nil {
		route = geom.MustPath(pts[0], pts[0].Add(geom.V(20, 0)))
	}
	spec := vehicle.DefaultSpec(vehicle.KindTruck)
	req := Request{
		ID: "ego", Route: route, Pose: geom.Pose{Pos: pts[0]},
		Speed: rng.Float64() * 10, SpeedCap: spec.MaxSpeed * (0.2 + 0.8*rng.Float64()),
		Spec: spec, BrakeFactor: 0.5 + 0.5*rng.Float64(), Radius: 1 + 2*rng.Float64(),
		FallbackRisk: rng.Float64(),
	}
	if rng.Intn(2) == 0 {
		end := route.End()
		req.Zone = world.Zone{ID: "refuge", Kind: world.ZoneParking,
			Area: geom.NewRect(end.Sub(geom.V(8, 8)), end.Add(geom.V(8, 8)))}
	}
	return req
}

// randomObstacles draws up to six obstacles near the route: moving ones,
// stationary ones stacked inside one cell, and ones parked on exact
// cell boundaries or crossing them at whole cells per sample.
func randomObstacles(rng *rand.Rand, req Request, cfg Config) []Obstacle {
	var obs []Obstacle
	pts := req.Route.Points()
	for i := rng.Intn(7); i > 0; i-- {
		at := pts[rng.Intn(len(pts))].Add(geom.V(rng.Float64()*60-30, rng.Float64()*60-30))
		ob := Obstacle{ID: "o", Pos: at, Radius: 0.5 + 3*rng.Float64()}
		switch rng.Intn(4) {
		case 0: // moving
			ob.Vel = geom.V(rng.Float64()*16-8, rng.Float64()*16-8)
		case 1: // a stack of stationary obstacles in one cell
			for k := 0; k < 3; k++ {
				obs = append(obs, Obstacle{ID: "s", Pos: at.Add(geom.V(0.01*float64(k), 0)), Radius: ob.Radius})
			}
		case 2: // parked on a cell corner
			ob.Pos = geom.V(math.Round(at.X/cfg.SafeDist)*cfg.SafeDist, math.Round(at.Y/cfg.SafeDist)*cfg.SafeDist)
		case 3: // from a cell corner, one cell per sample along an axis
			ob.Pos = geom.V(math.Round(at.X/cfg.SafeDist)*cfg.SafeDist, math.Round(at.Y/cfg.SafeDist)*cfg.SafeDist)
			ob.Vel = geom.V(float64(rng.Intn(3)-1)*cfg.SafeDist/cfg.SampleDT, 0)
		}
		obs = append(obs, ob)
	}
	return obs
}

var scoreConfigs = []Config{
	{},
	{SafeDist: 5, SampleDT: 0.25, Horizon: 12},
	{SafeDist: 7.5, SampleDT: 1, Horizon: 33.3},
}

// The scan must reproduce the grid-enumerating scorer bit for bit on
// every entry point: random routes and obstacle sets, zero obstacles,
// stationary stacks, cell-boundary positions at negative and positive
// coordinates, and stop profiles whose samples end before the horizon.
func TestScoreMatchesGridOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var zero, short, stacked, prox int
	for trial := 0; trial < 150; trial++ {
		cfg := scoreConfigs[trial%len(scoreConfigs)].withDefaults()
		req := randomRequest(rng, cfg.SafeDist)
		req.Obstacles = randomObstacles(rng, req, cfg)
		nBins := int(cfg.Horizon/cfg.SampleDT) + 1
		if len(req.Obstacles) == 0 {
			zero++
		}
		for _, ob := range req.Obstacles {
			if ob.ID == "s" {
				stacked++
				break
			}
		}
		for _, ep := range entryPoints {
			for _, c := range scoreDiff(t, ep, int64(trial), cfg, req) {
				if len(c.Samples) < nBins {
					short++
				}
				if c.Proximity > 0 {
					prox++
				}
			}
		}
	}
	if zero == 0 || short == 0 || stacked == 0 || prox == 0 {
		t.Errorf("coverage: %d zero-obstacle trials, %d short sample trains, %d stacked trials, %d candidates with proximity",
			zero, short, stacked, prox)
	}
}

// cellStart returns the smallest coordinate whose cell key is k at the
// given cell size, stepping from k*cell to absorb rounding in the key
// expression.
func cellStart(k int, cell float64) float64 {
	key := func(v float64) int { x, _ := geom.CellOf(geom.V(v, 0), cell); return x }
	v := float64(k) * cell
	for key(v) >= k {
		v = math.Nextafter(v, math.Inf(-1))
	}
	for key(v) < k {
		v = math.Nextafter(v, math.Inf(1))
	}
	return v
}

// Obstacles one float step either side of the reach cull's boundary:
// the last coordinate whose cell is adjacent to the candidates' cell
// box must score (it is admitted by the grid), the first one beyond it
// must not, and a fast obstacle whose end points both lie outside the
// box on opposite sides must not be culled.
func TestScoreCullBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		cfg := scoreConfigs[trial%len(scoreConfigs)].withDefaults()
		cell := cfg.SafeDist
		req := randomRequest(rng, cell)
		for _, ep := range entryPoints {
			seed := int64(trial)
			cands, _ := ep.run(New(seed, cfg), req)
			if len(cands) == 0 {
				continue
			}
			// The candidates' cell box and the sample spanning its +x edge.
			lo, hi := [2]int{math.MaxInt, math.MaxInt}, [2]int{math.MinInt, math.MinInt}
			var east, west geom.Vec2
			for _, c := range cands {
				for _, s := range c.Samples {
					x, y := geom.CellOf(s, cell)
					if x > hi[0] {
						east = s
					}
					if x < lo[0] {
						west = s
					}
					lo = [2]int{min(lo[0], x), min(lo[1], y)}
					hi = [2]int{max(hi[0], x), max(hi[1], y)}
				}
			}
			big := 2 * cell // any admitted pair overlaps: proximity 1
			edges := []struct {
				name  string
				ob    Obstacle
				admit bool
			}{
				{"east inside", Obstacle{Pos: geom.V(math.Nextafter(cellStart(hi[0]+2, cell), math.Inf(-1)), east.Y), Radius: big}, true},
				{"east outside", Obstacle{Pos: geom.V(cellStart(hi[0]+2, cell), east.Y), Radius: big}, false},
				{"west inside", Obstacle{Pos: geom.V(cellStart(lo[0]-1, cell), west.Y), Radius: big}, true},
				{"west outside", Obstacle{Pos: geom.V(math.Nextafter(cellStart(lo[0]-1, cell), math.Inf(-1)), west.Y), Radius: big}, false},
			}
			for _, e := range edges {
				r := req
				r.Obstacles = []Obstacle{e.ob}
				got := scoreDiff(t, ep, seed, cfg, r)
				peak := 0.0
				for _, c := range got {
					peak = max(peak, c.Proximity)
				}
				if (peak > 0) != e.admit {
					t.Fatalf("%s trial %d %s: peak proximity %v, want admitted=%v", ep.name, trial, e.name, peak, e.admit)
				}
			}
			// Crossing the box west to east over the horizon: both end
			// points are outside, the track is not.
			span := float64(hi[0]-lo[0]+6) * cell
			nBins := int(cfg.Horizon/cfg.SampleDT) + 1
			r := req
			r.Obstacles = []Obstacle{{Pos: geom.V(float64(lo[0]-3)*cell, west.Y),
				Vel: geom.V(span/(float64(nBins-1)*cfg.SampleDT), 0), Radius: big}}
			scoreDiff(t, ep, seed, cfg, r)
		}
	}
}
