package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"coopmrm/internal/agent"
	"coopmrm/internal/collab"
	"coopmrm/internal/comm"
	"coopmrm/internal/coop"
	"coopmrm/internal/core"
	"coopmrm/internal/fault"
	"coopmrm/internal/geom"
	"coopmrm/internal/metrics"
	"coopmrm/internal/sim"
	"coopmrm/internal/vehicle"
	"coopmrm/internal/world"
)

// FileConfig is the JSON schema for declaratively defined sites: the
// world (zones, route graph, weather script), the constituents with
// their roles and haul loops, the interaction class, and the fault
// schedule. See examples/custom/site.json.
type FileConfig struct {
	Name  string          `json:"name"`
	Seed  int64           `json:"seed"`
	Zones []ZoneConfig    `json:"zones"`
	Nodes []NodeConfig    `json:"nodes"`
	Edges [][2]string     `json:"edges"`
	Fleet []VehicleConfig `json:"fleet"`
	// Policy is the interaction class: baseline, status_sharing,
	// intent_sharing or coordinated (richer classes are composed
	// programmatically).
	Policy  string          `json:"policy"`
	Faults  []FaultConfig   `json:"faults"`
	Weather []WeatherConfig `json:"weather"`
}

// ZoneConfig declares one rectangular zone.
type ZoneConfig struct {
	ID       string     `json:"id"`
	Kind     string     `json:"kind"`
	Min      [2]float64 `json:"min"`
	Max      [2]float64 `json:"max"`
	Capacity int        `json:"capacity,omitempty"`
	Risk     float64    `json:"risk,omitempty"`
}

// NodeConfig declares one route-graph waypoint.
type NodeConfig struct {
	ID string  `json:"id"`
	X  float64 `json:"x"`
	Y  float64 `json:"y"`
}

// VehicleConfig declares one constituent.
type VehicleConfig struct {
	ID   string  `json:"id"`
	Kind string  `json:"kind"`
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
	// Role and Requires feed the dependency model (coordinated).
	Role     string   `json:"role,omitempty"`
	Requires []string `json:"requires,omitempty"`
	// Loop is the haul cycle over node IDs; empty keeps the vehicle
	// stationary (e.g. a digger).
	Loop []string `json:"loop,omitempty"`
	// Deposits marks loop nodes that credit a delivery.
	Deposits []string `json:"deposits,omitempty"`
	// ServiceNodes marks loop nodes requiring service before
	// departing; the gate is "any tooled constituent is operational".
	ServiceNodes []string `json:"serviceNodes,omitempty"`
	SpeedMS      float64  `json:"speedMs,omitempty"`
	Goal         string   `json:"goal,omitempty"`
}

// FaultConfig declares one scheduled fault.
type FaultConfig struct {
	Target         string  `json:"target"`
	Kind           string  `json:"kind"`
	Detail         string  `json:"detail,omitempty"`
	Severity       float64 `json:"severity,omitempty"` // default 1
	AtSeconds      float64 `json:"atSeconds"`
	Permanent      bool    `json:"permanent"`
	ClearAtSeconds float64 `json:"clearAtSeconds,omitempty"`
}

// WeatherConfig declares one scripted weather change.
type WeatherConfig struct {
	AtSeconds    float64 `json:"atSeconds"`
	Condition    string  `json:"condition"`
	TemperatureC float64 `json:"temperatureC"`
}

// CustomRig is a scenario built from a FileConfig.
type CustomRig struct {
	Name         string
	Engine       *sim.Engine
	World        *world.World
	Net          *comm.Network
	Constituents []*core.Constituent
	Hauls        map[string]*agent.HaulAgent
	Model        *core.DependencyModel
	Collector    *metrics.Collector
	Injector     *fault.Injector

	// view is the obstacle monitors' shared neighbour feed.
	view fleetView

	// Warm-rig lifecycle state (see QuarryRig).
	cfg   FileConfig
	wsnap world.Snapshot
	prev  map[string]*core.Constituent
}

// Run executes the scenario for the horizon.
func (r *CustomRig) Run(horizon time.Duration) Result {
	return runFor(r.Engine, r.Collector, horizon)
}

// Delivered sums the haul agents' deliveries.
func (r *CustomRig) Delivered() float64 {
	sum := 0.0
	for _, h := range r.Hauls {
		sum += h.Delivered()
	}
	return sum
}

// Load parses a FileConfig from JSON and builds the rig.
func Load(rd io.Reader) (*CustomRig, error) {
	var cfg FileConfig
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("scenario: parse config: %w", err)
	}
	return Build(cfg)
}

// Build assembles a rig from an in-memory FileConfig.
func Build(cfg FileConfig) (*CustomRig, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if len(cfg.Fleet) == 0 {
		return nil, fmt.Errorf("scenario: config %q has no fleet", cfg.Name)
	}
	w := world.New()
	for _, z := range cfg.Zones {
		kind, err := world.ParseZoneKind(z.Kind)
		if err != nil {
			return nil, err
		}
		if err := w.AddZone(world.Zone{
			ID: z.ID, Kind: kind, Capacity: z.Capacity, Risk: z.Risk,
			Area: geom.NewRect(geom.V(z.Min[0], z.Min[1]), geom.V(z.Max[0], z.Max[1])),
		}); err != nil {
			return nil, err
		}
	}
	g := w.Graph()
	for _, n := range cfg.Nodes {
		g.AddNode(n.ID, geom.V(n.X, n.Y))
	}
	for _, e := range cfg.Edges {
		if err := g.Connect(e[0], e[1]); err != nil {
			return nil, err
		}
	}

	engine := sim.NewEngine(sim.Config{Step: 100 * time.Millisecond, MaxTime: 24 * time.Hour, Seed: cfg.Seed})
	net := comm.NewNetwork(comm.NetConfig{Latency: 50 * time.Millisecond}, sim.NewRNG(cfg.Seed))

	rig := &CustomRig{Name: cfg.Name, Engine: engine, World: w, Net: net}
	rig.Snapshot()
	if err := rig.wire(cfg); err != nil {
		return nil, err
	}
	return rig, nil
}

// Snapshot captures the seed-invariant world baseline Reset rewinds
// to (see QuarryRig.Snapshot).
func (r *CustomRig) Snapshot() { r.wsnap = r.World.Snapshot() }

// Reset returns the rig to its just-constructed state under a new
// seed; output is byte-identical to a freshly Built rig at that seed
// (see QuarryRig.Reset). The weather schedule, if any, is rebuilt
// from the FileConfig by wire, so it replays from t=0.
func (r *CustomRig) Reset(seed int64) error {
	cfg := r.cfg
	cfg.Seed = seed
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}

	if r.prev == nil {
		r.prev = make(map[string]*core.Constituent, len(r.Constituents))
	}
	for _, c := range r.Constituents {
		r.prev[c.ID()] = c
	}

	r.Engine.Reset(cfg.Seed)
	r.Net.Reset(cfg.Seed)
	r.World.Restore(r.wsnap)

	clear(r.Constituents)
	r.Constituents = r.Constituents[:0]
	r.Hauls = nil
	r.Model = nil
	r.Collector = nil
	r.Injector = nil

	return r.wire(cfg)
}

// constituent re-adopts a parked shell by ID or builds a fresh one
// (see QuarryRig.constituent; error-returning because Build is).
func (r *CustomRig) constituent(cc core.Config) (*core.Constituent, error) {
	if c := r.prev[cc.ID]; c != nil {
		delete(r.prev, cc.ID)
		if err := c.Reinit(cc); err != nil {
			return nil, err
		}
		return c, nil
	}
	return core.NewConstituent(cc)
}

// wire performs every per-seed wiring step in fresh-construction
// order; Reset replays it against rewound substrate.
func (r *CustomRig) wire(cfg FileConfig) error {
	engine, w, net := r.Engine, r.World, r.Net
	g := w.Graph()
	r.cfg = cfg
	rig := r
	engine.AddPreHook(net.Hook())
	rig.Hauls = make(map[string]*agent.HaulAgent)
	rig.Model = core.NewDependencyModel()

	// Constituents.
	snap := &obstacleSnapshot{}
	for _, vc := range cfg.Fleet {
		kind, err := vehicle.ParseKind(vc.Kind)
		if err != nil {
			return err
		}
		if err := net.Register(vc.ID); err != nil {
			return err
		}
		c, err := rig.constituent(core.Config{
			ID:        vc.ID,
			Spec:      vehicle.DefaultSpec(kind),
			Start:     geom.Pose{Pos: geom.V(vc.X, vc.Y)},
			World:     w,
			Net:       net,
			Goal:      vc.Goal,
			Seed:      cfg.Seed,
			Obstacles: snap.obstaclesFor(vc.ID),
		})
		if err != nil {
			return err
		}
		if err := engine.Register(c); err != nil {
			return err
		}
		rig.Constituents = append(rig.Constituents, c)
		role := vc.Role
		if role == "" {
			role = vc.Kind
		}
		if err := rig.Model.AddConstituent(vc.ID, role, vc.Requires...); err != nil {
			return err
		}
	}
	snap.track(rig.Constituents)
	engine.AddPreHook(snap.hook())

	toolersWork := func() bool {
		for _, c := range rig.Constituents {
			if c.Body().Spec().HasTool && c.Operational() {
				return true
			}
		}
		return false
	}
	rig.view.track(engine.Env().Clock, rig.Constituents)

	// Haul agents.
	for i, vc := range cfg.Fleet {
		c := rig.Constituents[i]
		hc := agent.Config{
			C: c, Graph: g, World: w,
			Loop:            vc.Loop,
			UnitsPerDeposit: 1,
			Speed:           vc.SpeedMS,
			Neighbors:       rig.view.feed,
		}
		if hc.Speed <= 0 {
			hc.Speed = 8
		}
		if len(vc.Deposits) > 0 {
			hc.DepositNodes = make(map[string]bool, len(vc.Deposits))
			for _, d := range vc.Deposits {
				hc.DepositNodes[d] = true
			}
		}
		if len(vc.ServiceNodes) > 0 {
			hc.ServiceNodes = make(map[string]bool, len(vc.ServiceNodes))
			for _, sn := range vc.ServiceNodes {
				hc.ServiceNodes[sn] = true
			}
			hc.ServiceTime = 3 * time.Second
			hc.ServiceGate = toolersWork
		}
		h := agent.New(hc)
		if err := engine.Register(h); err != nil {
			return err
		}
		rig.Hauls[vc.ID] = h
	}

	// Policy.
	period := time.Second
	newBase := func(h *agent.HaulAgent) *coop.Base {
		b := coop.NewBase(h, net, g, period)
		b.World = w
		return b
	}
	switch cfg.Policy {
	case "", "baseline":
	case "status_sharing":
		for _, vc := range cfg.Fleet {
			if err := engine.Register(coop.NewStatusSharing(newBase(rig.Hauls[vc.ID]))); err != nil {
				return err
			}
		}
	case "intent_sharing":
		for _, vc := range cfg.Fleet {
			if err := engine.Register(coop.NewIntentSharing(newBase(rig.Hauls[vc.ID]))); err != nil {
				return err
			}
		}
	case "coordinated":
		for _, vc := range cfg.Fleet {
			if err := engine.Register(collab.NewCoordinated(newBase(rig.Hauls[vc.ID]), rig.Model)); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("scenario: config policy %q not supported (use baseline, status_sharing, intent_sharing or coordinated)", cfg.Policy)
	}

	// Weather script.
	if len(cfg.Weather) > 0 {
		changes := make([]world.WeatherChange, 0, len(cfg.Weather))
		for _, wc := range cfg.Weather {
			cond, err := world.ParseCondition(wc.Condition)
			if err != nil {
				return err
			}
			changes = append(changes, world.WeatherChange{
				At:           time.Duration(wc.AtSeconds * float64(time.Second)),
				Condition:    cond,
				TemperatureC: wc.TemperatureC,
			})
		}
		sched, err := world.NewWeatherSchedule(changes...)
		if err != nil {
			return err
		}
		engine.AddPreHook(func(env *sim.Env) { sched.Apply(w, env.Clock.Now()) })
	}

	// Metrics and faults.
	probes := make([]metrics.Probe, 0, len(rig.Constituents))
	for _, c := range rig.Constituents {
		probes = append(probes, probeFor(c, w))
	}
	rig.Collector = metrics.NewCollector(probes...)
	rig.Collector.SetInterventionCounter(func() int {
		n := 0
		for _, c := range rig.Constituents {
			n += c.Interventions()
		}
		return n
	})
	engine.AddPostHook(rig.Collector.Hook())

	rig.Injector = fault.NewInjector(nil)
	for _, c := range rig.Constituents {
		rig.Injector.RegisterHandler(c.ID(), c)
	}
	for i, fc := range cfg.Faults {
		kind, err := fault.ParseKind(fc.Kind)
		if err != nil {
			return err
		}
		sev := fc.Severity
		if sev == 0 {
			sev = 1
		}
		f := fault.Fault{
			ID: fmt.Sprintf("cfg-%d", i), Target: fc.Target, Kind: kind,
			Detail: fc.Detail, Severity: sev, Permanent: fc.Permanent,
			At:      time.Duration(fc.AtSeconds * float64(time.Second)),
			ClearAt: time.Duration(fc.ClearAtSeconds * float64(time.Second)),
		}
		if err := rig.Injector.Schedule(f); err != nil {
			return err
		}
	}
	engine.AddPreHook(rig.Injector.Hook())
	return nil
}
