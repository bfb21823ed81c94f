package agent

import (
	"time"

	"coopmrm/internal/core"
	"coopmrm/internal/sensor"
	"coopmrm/internal/sim"
	"coopmrm/internal/world"
)

// ObstacleMonitor implements the operational-level collision
// avoidance shared by the task agents: brake for any detected
// constituent inside the forward corridor within stopping distance
// plus a margin. Holds against obstacles outside tunnel zones time
// out after Patience and the vehicle passes around (the lateral
// manoeuvre is abstracted away by the 1-D road model); obstacles
// inside tunnel zones block indefinitely.
type ObstacleMonitor struct {
	C *core.Constituent
	// Neighbors returns the detectable constituents around C. An entry
	// carrying C's own ID is skipped, so a rig can hand every monitor
	// one shared fleet-wide list.
	Neighbors func() []sensor.Target
	// World enables the tunnel distinction; nil makes every hold hard.
	World             *world.World
	HoldMargin        float64
	CorridorHalfWidth float64
	Patience          time.Duration
	PassWindow        time.Duration

	holding   bool
	holdStart time.Duration
	passUntil time.Duration
	// detBuf is per-tick scratch for the detection pass, reused so a
	// steady-state Apply allocates nothing.
	detBuf []sensor.Detection
}

// NewObstacleMonitor returns a monitor with conventional defaults.
func NewObstacleMonitor(c *core.Constituent, neighbors func() []sensor.Target, w *world.World) *ObstacleMonitor {
	return &ObstacleMonitor{
		C:                 c,
		Neighbors:         neighbors,
		World:             w,
		HoldMargin:        8,
		CorridorHalfWidth: 2.5,
		Patience:          8 * time.Second,
		PassWindow:        6 * time.Second,
	}
}

// Apply evaluates the corridor and sets/clears the constituent's
// obstacle hold.
func (m *ObstacleMonitor) Apply(env *sim.Env) {
	c := m.C
	if m.Neighbors == nil {
		return
	}
	now := env.Clock.Now()
	if now < m.passUntil {
		c.HoldForObstacle(false)
		return
	}
	pos := c.Body().Position()
	forward := c.Body().Pose().Forward()
	holdDist := c.Body().StoppingDistance() + m.HoldMargin
	blocked := false
	inTunnel := false
	self := c.ID()
	m.detBuf = c.Suite().DetectInto(m.detBuf[:0], pos, m.Neighbors())
	for _, d := range m.detBuf {
		if d.ID == self {
			continue
		}
		delta := d.Pos.Sub(pos)
		fd := delta.Dot(forward)
		lat := delta.Cross(forward)
		if lat < 0 {
			lat = -lat
		}
		if fd > 0.5 && fd < holdDist && lat < m.CorridorHalfWidth {
			blocked = true
			if m.World != nil {
				inTunnel = m.World.HasZoneKindAt(world.ZoneTunnel, d.Pos)
			} else {
				inTunnel = true // without a world, all holds are hard
			}
			break
		}
	}
	if !blocked {
		m.holding = false
		c.HoldForObstacle(false)
		return
	}
	if !m.holding {
		m.holding = true
		m.holdStart = now
	}
	if !inTunnel && now-m.holdStart >= m.Patience {
		m.holding = false
		m.passUntil = now + m.PassWindow
		c.HoldForObstacle(false)
		return
	}
	c.HoldForObstacle(true)
}
