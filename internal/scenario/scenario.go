// Package scenario composes the substrate and policy layers into the
// named situations used by the paper, the experiment harness, and the
// examples: the quarry (digger/truck pairs), the harbour (crane and
// forklifts), the highway (individual AV and mixed traffic), and the
// platoon. Each builder returns a rig exposing the engine and the
// relevant components so experiments can inject faults and read
// results.
package scenario

import (
	"fmt"
	"math"
	"time"

	"coopmrm/internal/core"
	"coopmrm/internal/metrics"
	"coopmrm/internal/sensor"
	"coopmrm/internal/sim"
	"coopmrm/internal/traj"
	"coopmrm/internal/world"
)

// PolicyKind selects the interaction class wired into a rig.
type PolicyKind int

// Policy kinds: the individual-AV baseline plus the seven classes of
// Table I.
const (
	PolicyBaseline PolicyKind = iota + 1
	PolicyStatusSharing
	PolicyIntentSharing
	PolicyAgreementSeeking
	PolicyPrescriptive
	PolicyCoordinated
	PolicyChoreographed
	PolicyOrchestrated
)

var policyNames = map[PolicyKind]string{
	PolicyBaseline:         "baseline",
	PolicyStatusSharing:    "status_sharing",
	PolicyIntentSharing:    "intent_sharing",
	PolicyAgreementSeeking: "agreement_seeking",
	PolicyPrescriptive:     "prescriptive",
	PolicyCoordinated:      "coordinated",
	PolicyChoreographed:    "choreographed",
	PolicyOrchestrated:     "orchestrated",
}

// String implements fmt.Stringer.
func (p PolicyKind) String() string {
	if s, ok := policyNames[p]; ok {
		return s
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// AllPolicies lists every policy kind including the baseline, in
// Table I order.
func AllPolicies() []PolicyKind {
	return []PolicyKind{
		PolicyBaseline,
		PolicyStatusSharing,
		PolicyIntentSharing,
		PolicyAgreementSeeking,
		PolicyPrescriptive,
		PolicyCoordinated,
		PolicyChoreographed,
		PolicyOrchestrated,
	}
}

// Result is what a rig run returns.
type Result struct {
	Report metrics.Report
	Log    *sim.EventLog
}

// probeFor builds the standard metrics probe of a constituent.
func probeFor(c *core.Constituent, w *world.World) metrics.Probe {
	return metrics.Probe{
		ID:             c.ID(),
		Footprint:      c.Body().Footprint,
		Mode:           func() string { return c.Mode().String() },
		Stopped:        c.Body().Stopped,
		StopRisk:       func() float64 { return w.StopRiskAt(c.Body().Position()) },
		TransitionRisk: c.TransitionRisk,
		InActiveLane: func() bool {
			pos := c.Body().Position()
			return w.HasZoneKindAt(world.ZoneLane, pos) ||
				w.HasZoneKindAt(world.ZoneTunnel, pos)
		},
	}
}

// obstacleSnapshot feeds the constituents' trajectory planners: a
// sequential pre-hook copies every constituent's observed state into a
// read-only snapshot once per tick, and obstaclesFor serves
// everyone-but-self views of it. Planners read only the snapshot —
// never live bodies — so every plan made within a tick sees the same
// pre-step state of the fleet, whichever constituents have already
// stepped.
type obstacleSnapshot struct {
	cs    []*core.Constituent
	radii []float64
	snap  []traj.Obstacle
}

// track registers the constituents. Call once after rig construction,
// before the first tick; it also takes the initial snapshot so MRMs
// triggered before the engine runs plan against real positions.
func (s *obstacleSnapshot) track(cs []*core.Constituent) {
	s.cs = cs
	s.radii = make([]float64, len(cs))
	s.snap = make([]traj.Obstacle, len(cs))
	for i, c := range cs {
		spec := c.Body().Spec()
		s.radii[i] = 0.5 * math.Hypot(spec.Length, spec.Width)
	}
	s.fill()
}

func (s *obstacleSnapshot) fill() {
	for i, c := range s.cs {
		b := c.Body()
		s.snap[i] = traj.Obstacle{
			ID:     c.ID(),
			Pos:    b.Position(),
			Vel:    b.Pose().Forward().Scale(b.Speed()),
			Radius: s.radii[i],
		}
	}
}

// hook returns the per-tick refresh; register it as a pre-hook so the
// snapshot is filled sequentially before any entity steps.
func (s *obstacleSnapshot) hook() sim.Hook { return func(*sim.Env) { s.fill() } }

// obstaclesFor returns the planner feed for the constituent with the
// given ID: the current snapshot minus itself. The returned slice is
// reused across calls and must not be retained.
func (s *obstacleSnapshot) obstaclesFor(id string) func() []traj.Obstacle {
	var buf []traj.Obstacle
	return func() []traj.Obstacle {
		buf = buf[:0]
		for _, o := range s.snap {
			if o.ID != id {
				buf = append(buf, o)
			}
		}
		return buf
	}
}

// fleetView is a rig's shared neighbour feed for the obstacle
// monitors: every constituent's position, built once per tick on the
// tick's first feed call and handed to every monitor, which skips its
// own entry (agent.ObstacleMonitor). One list per tick replaces one
// rebuilt per monitor — O(fleet²) pointer chasing a tick.
//
// A single build serves the whole tick because positions change only
// in Constituent.Step (and in set-up Teleports), every feed consumer —
// haul agents, orchestrated monitors — is registered after every
// constituent: every feed call within one tick sees the same
// positions.
type fleetView struct {
	clock   *sim.Clock
	cs      []*core.Constituent
	tick    int64 // the tick targets was built for; -1 when stale
	targets []sensor.Target
}

// track binds the view to a rig's fleet and engine clock and marks it
// stale, so the first feed call builds it. Rigs call it once the
// constituents are registered.
func (v *fleetView) track(clock *sim.Clock, cs []*core.Constituent) {
	v.clock, v.cs, v.tick = clock, cs, -1
}

// feed returns every constituent's position this tick. The slice is
// shared by all monitors: callers must not modify it or retain it
// past the tick.
func (v *fleetView) feed() []sensor.Target {
	if tick := v.clock.Tick(); tick != v.tick {
		v.targets = v.targets[:0]
		for _, c := range v.cs {
			v.targets = append(v.targets, sensor.Target{ID: c.ID(), Pos: c.Body().Position()})
		}
		v.tick = tick
	}
	return v.targets
}

// runFor drives an engine for the horizon and packages the result.
func runFor(e *sim.Engine, col *metrics.Collector, horizon time.Duration) Result {
	e.RunFor(horizon)
	return Result{Report: col.Report(), Log: e.Env().Log}
}
