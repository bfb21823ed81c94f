package collab

import (
	"testing"
	"time"

	"coopmrm/internal/agent"
)

// BenchmarkCoordinatedStepSteady times one Step of every member of a
// coordinated 3-truck quarry in steady state: truck1 has been in MRC
// for a while, so every member's failed set is non-empty and unchanged
// from tick to tick. The clock does not advance, so no beacon is due
// and no status arrives; what remains is the per-tick bookkeeping and
// scope decision.
func BenchmarkCoordinatedStepSteady(b *testing.B) {
	q := newQuarry(b, 3)
	var members []*Coordinated
	for _, h := range append([]*agent.HaulAgent{q.dHaul}, q.hauls...) {
		m := NewCoordinated(newWorldBase(q, h), q.model)
		q.e.MustRegister(m)
		members = append(members, m)
	}
	q.e.RunFor(10 * time.Second)
	q.trucks[0].ApplyFault(blind("truck1"))
	q.e.RunFor(30 * time.Second)
	env := q.e.Env()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range members {
			m.Step(env)
		}
	}
}
