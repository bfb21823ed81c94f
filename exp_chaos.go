package coopmrm

import (
	"fmt"
	"time"

	"coopmrm/internal/comm"
	"coopmrm/internal/fault"
	"coopmrm/internal/scenario"
	"coopmrm/internal/sim"
)

// RunE17 stress-tests every interaction class against V2X chaos: a
// quarry fleet loses a truck to a sensor fault at t=30s, and at the
// same instant a global communication blackout of swept duration
// begins — on top of optional steady-state message loss and reorder.
// The paper's premise is that each class degrades gracefully when its
// channel does; this experiment quantifies the claim. Classes that use
// no V2X at all (baseline, choreographed) are the control group: the
// blackout cannot touch them.
func RunE17(opt Options) Table {
	opt = opt.withDefaults()
	t := Table{
		ID:     "E17",
		Title:  "V2X chaos: partition duration x loss x reorder per class",
		Paper:  "design: V2X robustness",
		Header: []string{"class", "partition_s", "loss", "reorder", "deliveries", "mrcs", "drop_share"},
		Note:   "truck1_1 blind at t=30s; a global blackout starts at the same instant and lasts partition_s; loss/reorder apply for the whole run; drop_share = dropped/sent",
	}
	horizon := 4 * time.Minute
	durations := []time.Duration{0, 30 * time.Second, 90 * time.Second}
	chaos := []struct{ loss, reorder float64 }{{0, 0}, {0.25, 0}, {0.25, 0.25}}
	if opt.Quick {
		horizon = 2 * time.Minute
		durations = []time.Duration{0, 45 * time.Second, 90 * time.Second}
		chaos = []struct{ loss, reorder float64 }{{0, 0}, {0.25, 0.25}}
	}
	const faultAt = 30 * time.Second
	for _, p := range scenario.AllPolicies() {
		for _, ch := range chaos {
			for _, d := range durations {
				net := comm.NetConfig{
					Latency:     50 * time.Millisecond,
					LossProb:    ch.loss,
					ReorderProb: ch.reorder,
				}
				if d > 0 {
					net.Partitions = []comm.Partition{{
						A: comm.PartitionAny, B: comm.PartitionAny,
						From: faultAt, Until: faultAt + d,
					}}
				}
				rig := mustQuarry(scenario.QuarryConfig{
					Pairs: 2, TrucksPerPair: 2, Policy: p, Seed: opt.Seed,
					Concerted: true,
					Net:       &net,
					Faults: []fault.Fault{{ID: "t", Target: "truck1_1",
						Kind: fault.KindSensor, Severity: 1, Permanent: true, At: faultAt}},
				})
				res := rig.Run(horizon)
				opt.Observe(fmt.Sprintf("class=%s/part=%s/loss=%g/reorder=%g",
					p, d, ch.loss, ch.reorder), res.Report, res.Log, rig.Net, rig.Injector)
				sent, dropped := rig.Net.Stats()
				share := 0.0
				if sent > 0 {
					share = float64(dropped) / float64(sent)
				}
				t.AddRow(p.String(), f1(d.Seconds()), fmt.Sprintf("%g", ch.loss),
					fmt.Sprintf("%g", ch.reorder), f1(rig.Delivered()),
					fmt.Sprintf("%d", res.Log.Count(sim.EventMRCReached)),
					fmt.Sprintf("%.3f", share))
			}
		}
	}
	return t
}
