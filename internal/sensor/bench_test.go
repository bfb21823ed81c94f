package sensor

import (
	"fmt"
	"testing"

	"coopmrm/internal/geom"
)

// fleetTargets lays out n targets on a 25 m lattice around the origin,
// the density of a large quarry's loading area.
func fleetTargets(n int) []Target {
	out := make([]Target, n)
	for i := range out {
		out[i] = Target{ID: fmt.Sprintf("c%d", i),
			Pos: geom.V(float64(i%20-10)*25, float64(i/20-10)*25)}
	}
	return out
}

// BenchmarkDetectInto times one detection pass of a standard suite over
// the other 399 constituents of a 400-constituent fleet, into a reused
// buffer.
func BenchmarkDetectInto(b *testing.B) {
	st := StandardSuite(120)
	targets := fleetTargets(399)
	var buf []Detection
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = st.DetectInto(buf[:0], geom.V(3, 4), targets)
	}
}
