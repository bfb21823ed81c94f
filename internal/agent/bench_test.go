package agent

import (
	"fmt"
	"testing"
	"time"

	"coopmrm/internal/geom"
	"coopmrm/internal/sensor"
	"coopmrm/internal/sim"
)

// BenchmarkObstacleMonitorApply times one corridor evaluation of a
// vehicle whose neighbour feed carries the other 399 constituents of a
// 400-constituent fleet on a 25 m lattice, none of them in its
// corridor: every detection is checked, none holds.
func BenchmarkObstacleMonitorApply(b *testing.B) {
	w := planWorld()
	mover := planConstituent(w, geom.V(0, 12))
	targets := make([]sensor.Target, 399)
	for i := range targets {
		targets[i] = sensor.Target{ID: fmt.Sprintf("c%d", i),
			Pos: geom.V(float64(i%20-10)*25, float64(i/20-10)*25)}
	}
	mon := NewObstacleMonitor(mover, func() []sensor.Target { return targets }, w)
	env := sim.NewEngine(sim.Config{Step: 100 * time.Millisecond}).Env()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mon.Apply(env)
	}
	if mover.Holding() {
		b.Fatal("no target lies in the corridor; the monitor must not hold")
	}
}
