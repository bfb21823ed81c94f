package comm

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"coopmrm/internal/sim"
)

// driveDifferential runs an identical randomized traffic script
// through two networks — the parcel-heap Network and the per-envelope
// scan+sort reference model (refNetwork) — and asserts every
// observable output is identical: drained inbox streams, Seq, Stats,
// StatsBreakdown, Pending. Both arms consume their own
// identically-seeded RNG, so any divergence is a delivery-order or
// accounting bug, not noise.
func driveDifferential(t *testing.T, cfg NetConfig, ids []string, seed int64, ticks int) {
	t.Helper()
	fast := NewNetwork(cfg, sim.NewRNG(seed))
	oracle := newRefNetwork(cfg, sim.NewRNG(seed))
	for _, id := range ids {
		fast.MustRegister(id)
		oracle.MustRegister(id)
	}
	// The script RNG is separate from the network RNGs so both arms
	// see the same op sequence.
	script := sim.NewRNG(seed + 1000)
	step := 100 * time.Millisecond
	for tick := 0; tick < ticks; tick++ {
		now := time.Duration(tick) * step
		// Occasional node and link state flaps, applied to both arms.
		if script.Bool(0.10) {
			id := ids[script.Intn(len(ids))]
			down := script.Bool(0.5)
			fast.SetNodeDown(id, down)
			oracle.SetNodeDown(id, down)
		}
		if script.Bool(0.10) {
			a, b := ids[script.Intn(len(ids))], ids[script.Intn(len(ids))]
			down := script.Bool(0.5)
			fast.SetLinkDown(a, b, down)
			oracle.SetLinkDown(a, b, down)
		}
		fast.Deliver(now)
		oracle.Deliver(now)
		for _, id := range ids {
			got := fast.Receive(id)
			want := oracle.Receive(id)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("tick %d: inbox %q diverges\n heap: %+v\noracle: %+v", tick, id, got, want)
			}
		}
		// A burst of sends after delivery: unicasts (including ghost
		// and self targets) and broadcasts.
		for k := script.Intn(4); k > 0; k-- {
			from := ids[script.Intn(len(ids))]
			to := Broadcast
			switch script.Intn(4) {
			case 0:
				to = ids[script.Intn(len(ids))]
			case 1:
				to = "ghost"
			}
			m := NewMessage(from, to, TypeStatus, "diff", map[string]string{"n": fmt.Sprint(tick)})
			if s1, s2 := fast.Send(m), oracle.Send(m); s1 != s2 {
				t.Fatalf("tick %d: Seq diverges: %d vs %d", tick, s1, s2)
			}
		}
		if fast.Pending() != oracle.Pending() {
			t.Fatalf("tick %d: Pending %d vs oracle %d", tick, fast.Pending(), oracle.Pending())
		}
	}
	gs, gd := fast.Stats()
	ws, wd := oracle.Stats()
	if gs != ws || gd != wd {
		t.Fatalf("Stats diverge: %d/%d vs oracle %d/%d", gs, gd, ws, wd)
	}
	if fast.StatsBreakdown() != oracle.StatsBreakdown() {
		t.Fatalf("Breakdown diverges: %+v vs %+v", fast.StatsBreakdown(), oracle.StatsBreakdown())
	}
}

// TestHeapDeliverMatchesScanOracle is the differential property test
// over the chaos configuration space. Besides the six-endpoint chaos
// configs it covers the parcel grouping's edge cases: a 400-endpoint
// fleet registered in numeric order, which is not ID order ("v2"
// sorts after "v10"); duplicate copies landing on their original's
// instant; and a nanosecond jitter that makes the copies of one Send
// collide on a few distinct instants.
func TestHeapDeliverMatchesScanOracle(t *testing.T) {
	six := []string{"a", "b", "c", "d", "e", "f"}
	fleet := make([]string, 400)
	for i := range fleet {
		fleet[i] = fmt.Sprintf("v%d", i)
	}
	cases := map[string]struct {
		cfg   NetConfig
		ids   []string
		ticks int
	}{
		"perfect": {cfg: NetConfig{}},
		"latency": {cfg: NetConfig{Latency: 150 * time.Millisecond}},
		"jitter":  {cfg: NetConfig{Latency: 50 * time.Millisecond, Jitter: 400 * time.Millisecond}},
		"lossy":   {cfg: NetConfig{Latency: 50 * time.Millisecond, Jitter: 200 * time.Millisecond, LossProb: 0.2}},
		"reorder": {cfg: NetConfig{Latency: 50 * time.Millisecond, ReorderProb: 0.3, ReorderWindow: time.Second}},
		"dup":     {cfg: NetConfig{Latency: 50 * time.Millisecond, Jitter: 100 * time.Millisecond, DupProb: 0.25}},
		"everything": {cfg: NetConfig{
			Latency: 80 * time.Millisecond, Jitter: 300 * time.Millisecond,
			LossProb: 0.1, ReorderProb: 0.2, DupProb: 0.15,
			Partitions: []Partition{
				{A: "a", B: "b", From: 2 * time.Second, Until: 5 * time.Second},
				{A: "c", From: 8 * time.Second, Until: 9 * time.Second},
				{A: PartitionAny, B: PartitionAny, From: 12 * time.Second, Until: 13 * time.Second},
			},
		}},
		"fleet400_unsorted_registration": {
			cfg: NetConfig{Latency: 50 * time.Millisecond, LossProb: 0.05}, ids: fleet, ticks: 40},
		"dup_same_instant": {cfg: NetConfig{Latency: 50 * time.Millisecond, DupProb: 0.5}},
		"jitter_ns_collisions": {
			cfg: NetConfig{Latency: 50 * time.Millisecond, Jitter: 3 * time.Nanosecond, DupProb: 0.3},
			ids: fleet, ticks: 40},
	}
	for name, tc := range cases {
		if tc.ids == nil {
			tc.ids = six
		}
		if tc.ticks == 0 {
			tc.ticks = 200
		}
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				driveDifferential(t, tc.cfg, tc.ids, seed, tc.ticks)
			}
		})
	}
}

// Jittered traffic across many ticks exercises the heap ordering with
// envelopes due out of insertion order; the engine-facing invariant is
// that messages drain in (deliverAt, Seq, recipient) order. Seq order
// within one inbox is checked for the no-jitter case.
func TestHeapDeliverFIFOWithoutJitter(t *testing.T) {
	n := newNet(NetConfig{Latency: 250 * time.Millisecond})
	n.MustRegister("a")
	n.MustRegister("b")
	for i := 0; i < 50; i++ {
		n.Send(NewMessage("a", "b", TypeStatus, "x", nil))
	}
	n.Deliver(time.Second)
	msgs := n.Receive("b")
	if len(msgs) != 50 {
		t.Fatalf("delivered %d, want 50", len(msgs))
	}
	for i := 1; i < len(msgs); i++ {
		if msgs[i].Seq <= msgs[i-1].Seq {
			t.Fatalf("out-of-order delivery: Seq %d after %d", msgs[i].Seq, msgs[i-1].Seq)
		}
	}
}

// Regression: Receive on an unregistered ID used to create a phantom
// inbox entry, making the ghost appear registered to later Sends.
func TestReceiveUnregisteredCreatesNoPhantomEndpoint(t *testing.T) {
	n := newNet(NetConfig{})
	n.MustRegister("a")
	if got := n.Receive("ghost"); got != nil {
		t.Fatalf("Receive(ghost) = %v, want nil", got)
	}
	n.Send(NewMessage("a", "ghost", TypeStatus, "x", nil))
	if b := n.StatsBreakdown(); b.Unregistered != 1 {
		t.Errorf("unicast to ghost after Receive(ghost): Unregistered = %d, want 1", b.Unregistered)
	}
}

// The double-buffer contract: the slice returned by Receive stays
// intact across the next Deliver (which appends into the other
// buffer), so an entity can finish ranging over its tick's messages
// while the following tick's traffic lands.
func TestReceiveSliceSurvivesNextDeliver(t *testing.T) {
	n := newNet(NetConfig{})
	n.MustRegister("a")
	n.MustRegister("b")
	n.Send(NewMessage("a", "b", TypeStatus, "x", map[string]string{"k": "first"}))
	n.Deliver(0)
	first := n.Receive("b")
	if len(first) != 1 || first[0].Get("k") != "first" {
		t.Fatalf("first drain = %+v", first)
	}
	n.Send(NewMessage("a", "b", TypeStatus, "x", map[string]string{"k": "second"}))
	n.Deliver(time.Millisecond)
	if first[0].Get("k") != "first" {
		t.Fatalf("slice from previous Receive was clobbered by next Deliver: %+v", first)
	}
	second := n.Receive("b")
	if len(second) != 1 || second[0].Get("k") != "second" {
		t.Fatalf("second drain = %+v", second)
	}
}

// The allocation-lean contract of the tick loop: once scratch buffers
// have grown to the working set, a steady-state broadcast
// send/deliver/receive cycle allocates nothing.
func TestNetworkSteadyStateTickAllocFree(t *testing.T) {
	n := newNet(NetConfig{Latency: 50 * time.Millisecond})
	ids := make([]string, 10)
	for i := range ids {
		ids[i] = fmt.Sprintf("v%d", i)
		n.MustRegister(ids[i])
	}
	msg := NewMessage("v0", Broadcast, TypeStatus, TopicStatus, map[string]string{KeyMode: "nominal"})
	tick := 0
	cycle := func() {
		tick++
		n.Deliver(time.Duration(tick) * 100 * time.Millisecond)
		for _, id := range ids {
			n.Receive(id)
		}
		n.Send(msg)
	}
	for i := 0; i < 100; i++ { // grow all scratch buffers
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Errorf("steady-state network tick allocates %v allocs/op, want 0", allocs)
	}
}
