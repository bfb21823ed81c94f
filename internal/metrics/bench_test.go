package metrics_test

import (
	"testing"
	"time"

	"coopmrm/internal/fault"
	"coopmrm/internal/geom"
	"coopmrm/internal/scenario"
)

// benchSample times one Collector.Sample of a staged quarry rig. The
// rig is stepped for settle first so its probes sit in the mix of
// modes the timed ticks see.
func benchSample(b *testing.B, cfg scenario.QuarryConfig, settle time.Duration, stage func(*scenario.QuarryRig)) {
	b.Helper()
	rig, err := scenario.NewQuarry(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if stage != nil {
		stage(rig)
	}
	rig.Run(settle)
	env := rig.Engine.Env()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rig.Collector.Sample(env)
	}
}

// BenchmarkCollectorSampleE19Rig samples the campaign-size rig: E19's
// 2-pair coordinated quarry 45 s in, truck1_1 sensor-blind since 30 s,
// so one probe is in MRC and the others stay nominal.
func BenchmarkCollectorSampleE19Rig(b *testing.B) {
	benchSample(b, scenario.QuarryConfig{
		Pairs: 2, TrucksPerPair: 1,
		Policy: scenario.PolicyCoordinated,
		Seed:   1,
		Faults: []fault.Fault{{ID: "e19", Target: "truck1_1", Kind: fault.KindSensor,
			Severity: 1, Permanent: true, At: 30 * time.Second}},
	}, 45*time.Second, nil)
}

// BenchmarkCollectorSample200Pair samples the fleet-size rig: a
// 200-pair status-sharing quarry with truck1_1 blinded on the haul
// road, as the large-deployment workload stages it, 10 s in.
func BenchmarkCollectorSample200Pair(b *testing.B) {
	benchSample(b, scenario.QuarryConfig{
		Pairs: 200, TrucksPerPair: 1,
		Policy:       scenario.PolicyStatusSharing,
		Seed:         1,
		BeaconPeriod: 5 * time.Second,
	}, 10*time.Second, func(rig *scenario.QuarryRig) {
		victim := rig.Trucks[0]
		victim.Body().Teleport(geom.Pose{Pos: geom.V(150, 0)})
		victim.ApplyFault(fault.Fault{ID: "blind", Target: victim.ID(),
			Kind: fault.KindSensor, Severity: 1, Permanent: true})
	})
}
