package scenario

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"coopmrm/internal/collab"
	"coopmrm/internal/comm"
	"coopmrm/internal/fault"
	"coopmrm/internal/sim"
	"coopmrm/internal/world"
)

// Warm-rig differential: a rig Reset to seed S must produce output
// byte-identical to a rig freshly constructed at seed S — same event
// stream, same report, same delivered work, same network traffic.
// This is the oracle the whole snapshot/reset lifecycle answers to;
// the campaign engine's correctness reduces to it.

// runDigest runs the rig for the horizon and renders everything
// observable into one byte string: the full event log as JSON, the
// metrics report as JSON, and the network send/drop counters. Any
// divergence between a fresh and a reset rig shows up here.
func runDigest(t *testing.T, log *sim.EventLog, report any, extra string) string {
	t.Helper()
	var b strings.Builder
	if err := log.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	rj, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	b.Write(rj)
	b.WriteString(extra)
	return b.String()
}

func quarryDigest(t *testing.T, r *QuarryRig, horizon time.Duration) string {
	t.Helper()
	res := r.Run(horizon)
	sent, dropped := r.Net.Stats()
	return runDigest(t, res.Log, res.Report,
		fmt.Sprintf("delivered=%v sent=%d dropped=%d", r.Delivered(), sent, dropped))
}

type quarryWarmCase struct {
	cfg QuarryConfig
	// seedSensitive cases draw visibly from the seeded RNG (network
	// jitter/loss), so runs at different seeds must differ — proving
	// the differential has the power to catch seed leakage. The
	// default deterministic network makes output seed-invariant, so
	// that case skips the power guard.
	seedSensitive bool
}

// quarryWarmCases samples the quarry configuration space: every layer
// wire() touches has at least one case exercising it (haul agents,
// each policy family's wiring shape, fault schedules, chaos network
// configs).
func quarryWarmCases() map[string]quarryWarmCase {
	// Jitter wide enough to move deliveries across tick boundaries and
	// a little loss: both draw from the seeded network RNG, making the
	// run's output an observable function of the seed.
	jitter := &comm.NetConfig{
		Latency: 50 * time.Millisecond, Jitter: 80 * time.Millisecond, LossProb: 0.05,
	}
	chaos := &comm.NetConfig{
		Latency: 40 * time.Millisecond, Jitter: 25 * time.Millisecond,
		LossProb: 0.08, ReorderProb: 0.2, ReorderWindow: 3, DupProb: 0.03,
	}
	f := []fault.Fault{
		{ID: "f1", Target: "truck1_1", Kind: fault.KindSensor,
			Severity: 1, Permanent: true, At: 10 * time.Second},
		{ID: "f2", Target: "digger1", Kind: fault.KindComm,
			Severity: 1, At: 20 * time.Second, ClearAt: 35 * time.Second},
	}
	return map[string]quarryWarmCase{
		"defaultnet": {cfg: QuarryConfig{Policy: PolicyCoordinated, Faults: f}},
		// No power guard for baseline: the individual-AV class sends no
		// policy traffic, so nothing observable draws from the RNG.
		"baseline":     {cfg: QuarryConfig{Policy: PolicyBaseline, Net: jitter, Faults: f}},
		"coordinated":  {cfg: QuarryConfig{Policy: PolicyCoordinated, Pairs: 3, TrucksPerPair: 2, Net: jitter, Faults: f}, seedSensitive: true},
		"prescriptive": {cfg: QuarryConfig{Policy: PolicyPrescriptive, Net: jitter, Faults: f}, seedSensitive: true},
		"orchestrated": {cfg: QuarryConfig{Policy: PolicyOrchestrated, Net: jitter, Faults: f}, seedSensitive: true},
		"chaos":        {cfg: QuarryConfig{Policy: PolicyStatusSharing, Net: chaos, Faults: f}, seedSensitive: true},
	}
}

func TestWarmRigQuarryResetMatchesFresh(t *testing.T) {
	const horizon = 45 * time.Second
	for name, tc := range quarryWarmCases() {
		cfg := tc.cfg
		t.Run(name, func(t *testing.T) {
			// Fresh rigs at seeds 7 and 11.
			cfg7 := cfg
			cfg7.Seed = 7
			fresh7, err := NewQuarry(cfg7)
			if err != nil {
				t.Fatal(err)
			}
			want7 := quarryDigest(t, fresh7, horizon)
			cfg11 := cfg
			cfg11.Seed = 11
			fresh11, err := NewQuarry(cfg11)
			if err != nil {
				t.Fatal(err)
			}
			want11 := quarryDigest(t, fresh11, horizon)
			if tc.seedSensitive && want7 == want11 {
				t.Fatal("seeds 7 and 11 produced identical output — differential has no power")
			}

			// One rig chained through reset: 11 → reset 7 → reset 11.
			warm, err := NewQuarry(cfg11)
			if err != nil {
				t.Fatal(err)
			}
			if got := quarryDigest(t, warm, horizon); got != want11 {
				t.Fatal("same construction diverged from itself — rig is nondeterministic")
			}
			if err := warm.Reset(7); err != nil {
				t.Fatal(err)
			}
			if got := quarryDigest(t, warm, horizon); got != want7 {
				t.Errorf("reset(7) diverged from fresh seed-7 run (%d vs %d bytes)", len(got), len(want7))
			}
			if err := warm.Reset(11); err != nil {
				t.Fatal(err)
			}
			if got := quarryDigest(t, warm, horizon); got != want11 {
				t.Errorf("second reset(11) diverged from fresh seed-11 run (%d vs %d bytes)", len(got), len(want11))
			}
		})
	}
}

// A coordinated member memoizes its scope decision against its failed
// set. A warm Reset must hand the next seed members that hold neither
// the previous seed's failed set nor its decision: the members are
// rebuilt, so every one starts with an empty failed set.
func TestWarmRigCoordinatedMembersStartClean(t *testing.T) {
	cfg := quarryWarmCases()["coordinated"].cfg
	cfg.Seed = 11
	warm, err := NewQuarry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	members := func() []*collab.Coordinated {
		var out []*collab.Coordinated
		for _, p := range warm.Policies {
			if m, ok := p.(*collab.Coordinated); ok {
				out = append(out, m)
			}
		}
		return out
	}
	warm.Run(45 * time.Second)
	failed := 0
	for _, m := range members() {
		failed += len(m.FailedSet())
	}
	if failed == 0 {
		t.Fatal("no member saw a failure — the check has no power")
	}
	if err := warm.Reset(7); err != nil {
		t.Fatal(err)
	}
	for _, m := range members() {
		if fs := m.FailedSet(); len(fs) != 0 {
			t.Errorf("%s starts seed 7 believing %v failed", m.ID(), fs)
		}
	}
}

// A mid-run edge block in seed N must not leak cached avoid-paths or
// blocked state into seed N+1: after Reset, the world rewinds to the
// construction baseline and the route cache is invalidated, so the
// next run is byte-identical to a cold rig (ISSUE 10 satellite 6).
func TestWarmRigQuarryBlockedEdgeDoesNotLeak(t *testing.T) {
	const horizon = 30 * time.Second
	cfg := QuarryConfig{Policy: PolicyCoordinated, Seed: 5}

	cold, err := NewQuarry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := quarryDigest(t, cold, horizon)

	warm, err := NewQuarry(QuarryConfig{Policy: PolicyCoordinated, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	g := warm.World.Graph()
	// Force route traffic through the detour, warming path-cache
	// entries computed under the blocked state.
	if err := g.BlockEdge("load", "mid"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.ShortestPath("load", "dep"); err != nil {
		t.Fatal(err)
	}
	warm.Run(horizon)
	if err := warm.Reset(5); err != nil {
		t.Fatal(err)
	}
	if got := quarryDigest(t, warm, horizon); got != want {
		t.Error("seed with blocked edge leaked into the next seed's run")
	}
}

func harbourDigest(t *testing.T, r *HarbourRig, horizon time.Duration) string {
	t.Helper()
	res := r.Run(horizon)
	return runDigest(t, res.Log, res.Report,
		fmt.Sprintf("delivered=%v level=%d", r.Delivered(), r.Supervisor.Level()))
}

func TestWarmRigHarbourResetMatchesFresh(t *testing.T) {
	const horizon = 2 * time.Minute
	// The scripted rain onset drives the MRC1/MRC2 escalation, and the
	// schedule is externally owned — exactly the stateful-cursor case
	// Reset must handle (wire rewinds it).
	mk := func(seed int64) HarbourConfig {
		return HarbourConfig{
			Forklifts: 4, Seed: seed, TwoLevel: true,
			Weather: world.MustWeatherSchedule(
				world.WeatherChange{At: 30 * time.Second, Condition: world.Rain, TemperatureC: 3},
			),
			Faults: []fault.Fault{
				{ID: "f1", Target: "forklift2", Kind: fault.KindPropulsion,
					Severity: 0.5, At: 50 * time.Second, ClearAt: 80 * time.Second},
			},
		}
	}
	fresh7, err := NewHarbour(mk(7))
	if err != nil {
		t.Fatal(err)
	}
	want7 := harbourDigest(t, fresh7, horizon)
	if c := fresh7.Engine.Env().Log.Count(sim.EventMRCLocal); c == 0 {
		t.Fatal("weather script never escalated — differential too tame")
	}

	warm, err := NewHarbour(mk(3))
	if err != nil {
		t.Fatal(err)
	}
	harbourDigest(t, warm, horizon)
	if err := warm.Reset(7); err != nil {
		t.Fatal(err)
	}
	if got := harbourDigest(t, warm, horizon); got != want7 {
		t.Error("harbour reset(7) diverged from fresh seed-7 run")
	}
}

func highwayDigest(t *testing.T, r *HighwayRig, horizon time.Duration) string {
	t.Helper()
	res := r.Run(horizon)
	sent, dropped := r.Net.Stats()
	return runDigest(t, res.Log, res.Report,
		fmt.Sprintf("progress=%v sent=%d dropped=%d", r.Progress(), sent, dropped))
}

func TestWarmRigHighwayResetMatchesFresh(t *testing.T) {
	const horizon = 90 * time.Second
	mk := func(seed int64) HighwayConfig {
		cfg := HighwayConfig{NCars: 5, Policy: PolicyAgreementSeeking, Seed: seed, Loss: 0.1, EgoIndex: -1}
		return cfg
	}
	cfg7 := mk(7)
	fresh7, err := NewHighway(cfg7)
	if err != nil {
		t.Fatal(err)
	}
	fresh7.Injector.MustSchedule(fresh7.PerceptionFault(20*time.Second, 30, true))
	want7 := highwayDigest(t, fresh7, horizon)

	fresh11, err := NewHighway(mk(11))
	if err != nil {
		t.Fatal(err)
	}
	fresh11.Injector.MustSchedule(fresh11.PerceptionFault(20*time.Second, 30, true))
	if got := highwayDigest(t, fresh11, horizon); got == want7 {
		t.Fatal("seeds 7 and 11 produced identical output — differential has no power")
	}

	warm, err := NewHighway(mk(11))
	if err != nil {
		t.Fatal(err)
	}
	warm.Injector.MustSchedule(warm.PerceptionFault(20*time.Second, 30, true))
	highwayDigest(t, warm, horizon)
	if err := warm.Reset(7); err != nil {
		t.Fatal(err)
	}
	// Post-wire injections are not part of the replayed config; redo
	// them as a fresh caller would.
	warm.Injector.MustSchedule(warm.PerceptionFault(20*time.Second, 30, true))
	if got := highwayDigest(t, warm, horizon); got != want7 {
		t.Error("highway reset(7) diverged from fresh seed-7 run")
	}
}

func platoonDigest(t *testing.T, r *PlatoonRig, horizon time.Duration) string {
	t.Helper()
	res := r.Run(horizon)
	return runDigest(t, res.Log, res.Report, "")
}

func TestWarmRigPlatoonResetMatchesFresh(t *testing.T) {
	const horizon = 2 * time.Minute
	mk := func(seed int64) PlatoonConfig {
		return PlatoonConfig{
			Members: 4, Seed: seed,
			Faults: []fault.Fault{
				{ID: "f1", Target: "member2", Kind: fault.KindPropulsion,
					Severity: 0.7, Permanent: true, At: 30 * time.Second},
			},
		}
	}
	fresh7, err := NewPlatoon(mk(7))
	if err != nil {
		t.Fatal(err)
	}
	want7 := platoonDigest(t, fresh7, horizon)

	warm, err := NewPlatoon(mk(3))
	if err != nil {
		t.Fatal(err)
	}
	platoonDigest(t, warm, horizon)
	if err := warm.Reset(7); err != nil {
		t.Fatal(err)
	}
	if got := platoonDigest(t, warm, horizon); got != want7 {
		t.Error("platoon reset(7) diverged from fresh seed-7 run")
	}
}

func customDigest(t *testing.T, r *CustomRig, horizon time.Duration) string {
	t.Helper()
	res := r.Run(horizon)
	sent, dropped := r.Net.Stats()
	return runDigest(t, res.Log, res.Report,
		fmt.Sprintf("delivered=%v sent=%d dropped=%d", r.Delivered(), sent, dropped))
}

func TestWarmRigCustomResetMatchesFresh(t *testing.T) {
	const horizon = 90 * time.Second
	mk := func(seed int64) FileConfig {
		return FileConfig{
			Name: "warmrig-site",
			Seed: seed,
			Zones: []ZoneConfig{
				{ID: "pit", Kind: "loading", Min: [2]float64{-20, -20}, Max: [2]float64{20, 20}},
				{ID: "dump", Kind: "unloading", Min: [2]float64{180, -20}, Max: [2]float64{220, 20}},
			},
			Nodes: []NodeConfig{
				{ID: "pit", X: 0, Y: 0}, {ID: "dump", X: 200, Y: 0},
			},
			Edges: [][2]string{{"pit", "dump"}},
			Fleet: []VehicleConfig{
				{ID: "dig1", Kind: "digger", X: 5, Y: 8, Role: "digger", Goal: "load"},
				{ID: "haul1", Kind: "truck", X: -10, Y: 0, Role: "truck", Requires: []string{"digger"},
					Loop: []string{"dump", "pit"}, Deposits: []string{"dump"}, ServiceNodes: []string{"pit"}},
				{ID: "haul2", Kind: "truck", X: -20, Y: 0, Role: "truck", Requires: []string{"digger"},
					Loop: []string{"dump", "pit"}, Deposits: []string{"dump"}, ServiceNodes: []string{"pit"}},
			},
			Policy: "coordinated",
			Faults: []FaultConfig{
				{Target: "dig1", Kind: "propulsion", AtSeconds: 25, Permanent: true},
			},
			Weather: []WeatherConfig{
				{AtSeconds: 40, Condition: "rain", TemperatureC: 2},
			},
		}
	}
	fresh7, err := Build(mk(7))
	if err != nil {
		t.Fatal(err)
	}
	want7 := customDigest(t, fresh7, horizon)

	warm, err := Build(mk(3))
	if err != nil {
		t.Fatal(err)
	}
	customDigest(t, warm, horizon)
	if err := warm.Reset(7); err != nil {
		t.Fatal(err)
	}
	if got := customDigest(t, warm, horizon); got != want7 {
		t.Error("custom reset(7) diverged from fresh seed-7 run")
	}
}

func TestQuarryPoolReusesRigs(t *testing.T) {
	cfg := QuarryConfig{Policy: PolicyCoordinated, Seed: 21,
		Net: &comm.NetConfig{Latency: 50 * time.Millisecond, Jitter: 80 * time.Millisecond, LossProb: 0.05}}
	const horizon = 30 * time.Second

	fresh, err := NewQuarry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := quarryDigest(t, fresh, horizon)

	a, err := AcquireQuarry(QuarryConfig{Policy: PolicyCoordinated, Seed: 3,
		Net: &comm.NetConfig{Latency: 50 * time.Millisecond, Jitter: 80 * time.Millisecond, LossProb: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	quarryDigest(t, a, horizon)
	a.Release()

	// Same config modulo seed (and a distinct but equal Net pointer):
	// must come back as the same rig, warm.
	b, err := AcquireQuarry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b != a {
		t.Error("pool did not reuse the released rig for an equivalent config")
	}
	if got := quarryDigest(t, b, horizon); got != want {
		t.Error("pooled warm rig diverged from fresh construction")
	}
	b.Release()

	// A different configuration must not collide with the parked rig.
	c, err := AcquireQuarry(QuarryConfig{Policy: PolicyBaseline, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if c == b {
		t.Error("pool key collision: different config reused an incompatible rig")
	}
	c.Release()
}
