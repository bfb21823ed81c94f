// Package collab implements the three collaborative interaction
// classes of the paper's Table I: coordinated, choreographed, and
// orchestrated. All share a common strategic goal; they differ in how
// (and whether) they communicate to keep pursuing it when a
// constituent reaches MRC.
//
// MRM/MRC characteristics reproduced per class (Table I):
//
//   - coordinated: constituents communicate peer-to-peer; on a
//     member's MRC they agree on reroutes or task reallocation (local
//     MRC) or on a joint park-and-stop (global MRC).
//   - choreographed: no communication; the designed-in behaviour
//     (check-in deadlines, predetermined alternate routes or halts)
//     covers local and global MRCs.
//   - orchestrated: a directing entity (TMS) assigns tasks, reroutes
//     survivors (local MRC), or stops everyone — immediately or via a
//     concerted drive-to-parking (global MRC).
package collab

import (
	"slices"
	"time"

	"coopmrm/internal/comm"
	"coopmrm/internal/coop"
	"coopmrm/internal/core"
	"coopmrm/internal/sim"
)

// Coordinated is the peer-to-peer collaborative policy. Every member
// shares the same dependency model; when beacons show members in MRC,
// each survivor independently derives the same scope decision
// (deterministic agreement over shared state, standing in for the
// explicit consent round): continue with reroutes on a local MRC, or
// drive to parking and stop on a global one.
type Coordinated struct {
	base  *coop.Base
	Model *core.DependencyModel
	// ParkMRC is the hierarchy entry used for the negotiated global
	// park-and-stop.
	ParkMRC string

	// down is the sorted set of members this one believes are in MRC,
	// kept in place as beacons and its own state arrive. dec is the
	// scope decision resolved for it; stale marks that down changed
	// since, so the decision is resolved again only when the set
	// differs. The model is fixed once the member steps.
	down  []string
	dec   core.ScopeDecision
	stale bool
}

var _ sim.Entity = (*Coordinated)(nil)

// NewCoordinated wires the policy.
func NewCoordinated(base *coop.Base, model *core.DependencyModel) *Coordinated {
	return &Coordinated{
		base:    base,
		Model:   model,
		ParkMRC: "parking",
		stale:   true,
	}
}

// ID implements sim.Entity.
func (p *Coordinated) ID() string { return p.base.C().ID() + ":coordinated" }

// Base exposes the shared plumbing.
func (p *Coordinated) Base() *coop.Base { return p.base }

// FailedSet returns the sorted IDs this member believes are in MRC.
func (p *Coordinated) FailedSet() []string {
	return append(make([]string, 0, len(p.down)), p.down...)
}

// mark records whether id is in MRC.
func (p *Coordinated) mark(id string, down bool) {
	i, found := slices.BinarySearch(p.down, id)
	switch {
	case down && !found:
		p.down = slices.Insert(p.down, i, id)
		p.stale = true
	case !down && found:
		p.down = slices.Delete(p.down, i, i+1)
		p.stale = true
	}
}

// Step implements sim.Entity.
func (p *Coordinated) Step(env *sim.Env) {
	c := p.base.C()
	for _, m := range p.base.Net.Receive(c.ID()) {
		if m.Topic != comm.TopicStatus {
			continue
		}
		p.base.HandleStatus(m)
		mode := m.Get(comm.KeyMode)
		p.mark(m.From, mode == "mrc" || mode == "mrm")
	}
	// Own state counts too (a member knows its own MRC without comms).
	p.mark(c.ID(), !c.Operational())

	if c.Operational() {
		if p.stale {
			p.dec = p.Model.ResolveScope(p.down...)
			p.stale = false
		}
		dec := p.dec
		switch {
		case dec.Level == core.ScopeGlobal:
			env.EmitFields(sim.EventMRCGlobal, c.ID(), "coordinated global MRC: parking",
				map[string]string{"affected": joinIDs(dec.Affected)})
			env.Emit(sim.EventMRMConcerted, c.ID(),
				"concerted global MRM: agreed drive to "+p.ParkMRC)
			c.TriggerMRMTo(env, p.ParkMRC, "coordinated global MRC")
		case inSet(dec.Affected, c.ID()):
			env.EmitFields(sim.EventMRCLocal, c.ID(), "coordinated local MRC: "+dec.Reasons[c.ID()],
				map[string]string{"affected": joinIDs(dec.Affected)})
			c.TriggerMRMTo(env, p.ParkMRC, dec.Reasons[c.ID()])
		}
	}
	p.base.BeaconIfDue(env)
}

func inSet(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func joinIDs(xs []string) string {
	out := ""
	for i, x := range xs {
		if i > 0 {
			out += ","
		}
		out += x
	}
	return out
}

// CheckInBoard is the designed-in observation point used by the
// choreographed class: vehicles physically checking in at the deposit
// are observable without V2X (think a gate sensor). It is not a
// communication channel — members only read arrival times.
type CheckInBoard struct {
	last map[string]time.Duration
}

// NewCheckInBoard returns an empty board.
func NewCheckInBoard() *CheckInBoard {
	return &CheckInBoard{last: make(map[string]time.Duration)}
}

// Record notes a check-in at the given time.
func (b *CheckInBoard) Record(id string, at time.Duration) { b.last[id] = at }

// Last returns the last check-in time of id and whether one exists.
func (b *CheckInBoard) Last(id string) (time.Duration, bool) {
	t, ok := b.last[id]
	return t, ok
}
