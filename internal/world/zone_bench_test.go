package world

import (
	"testing"

	"coopmrm/internal/geom"
)

// BenchmarkHasZoneKindAt times the active-lane test the metrics probes
// run for every constituent every tick — lane, then tunnel — on the
// quarry scenario's five zones, at a point on the haul road (a tunnel
// hit after a full lane miss) and one in open ground (two full misses).
func BenchmarkHasZoneKindAt(b *testing.B) {
	w := New()
	w.MustAddZone(Zone{ID: "loading", Kind: ZoneLoading, Area: rect(-15, -15, 15, 15)})
	w.MustAddZone(Zone{ID: "deposit", Kind: ZoneUnloading, Area: rect(285, -15, 315, 15)})
	w.MustAddZone(Zone{ID: "haulroad", Kind: ZoneTunnel, Area: rect(15, -6, 285, 6)})
	w.MustAddZone(Zone{ID: "pocket", Kind: ZonePocket, Area: rect(140, 8, 160, 18)})
	w.MustAddZone(Zone{ID: "park", Kind: ZoneParking, Area: rect(-90, -90, -30, -30)})
	pts := [2]geom.Vec2{geom.V(150, 0), geom.V(150, 60)}
	hits := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pts[i&1]
		if w.HasZoneKindAt(ZoneLane, p) || w.HasZoneKindAt(ZoneTunnel, p) {
			hits++
		}
	}
	if hits != (b.N+1)/2 {
		b.Fatalf("%d hits in %d probes", hits, b.N)
	}
}
