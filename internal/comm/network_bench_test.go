package comm

import (
	"fmt"
	"testing"
	"time"

	"coopmrm/internal/sim"
)

func BenchmarkBroadcastDeliver(b *testing.B) {
	n := NewNetwork(NetConfig{Latency: 50 * time.Millisecond}, sim.NewRNG(1))
	ids := make([]string, 20)
	for i := range ids {
		ids[i] = fmt.Sprintf("v%d", i)
		n.MustRegister(ids[i])
	}
	msg := NewMessage("v0", Broadcast, TypeStatus, TopicStatus,
		map[string]string{KeyMode: "nominal", KeyX: "1.0", KeyY: "2.0"})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Send(msg)
		n.Deliver(time.Duration(i+1) * 100 * time.Millisecond)
		for _, id := range ids {
			n.Receive(id)
		}
	}
}

// medium is the delivery surface shared by Network and its
// per-envelope reference model, so one benchmark body drives both.
type medium interface {
	MustRegister(id string)
	Send(m Message) int64
	Deliver(now time.Duration)
	Receive(id string) []Message
}

// benchNetworkTick10Node is a broadcast-heavy delivery tick: 10 nodes
// each beaconing one status broadcast per tick (90 attempted
// deliveries), jitter spreading the due times across several ticks so
// the in-transit set stays populated. The ratio between the two arms
// is the delivery-tick speedup of the parcel heap over the
// per-envelope scan+sort, and the heap arm's allocs/op is locked to
// zero by TestNetworkSteadyStateTickAllocFree for the no-jitter steady
// state.
func benchNetworkTick10Node(b *testing.B, n medium) {
	b.Helper()
	ids := make([]string, 10)
	msgs := make([]Message, 10)
	for i := range ids {
		ids[i] = fmt.Sprintf("v%d", i)
		n.MustRegister(ids[i])
		msgs[i] = NewMessage(ids[i], Broadcast, TypeStatus, TopicStatus,
			map[string]string{KeyMode: "nominal", KeyX: "1.0", KeyY: "2.0"})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Deliver(time.Duration(i) * 100 * time.Millisecond)
		for _, id := range ids {
			n.Receive(id)
		}
		for _, m := range msgs {
			n.Send(m)
		}
	}
}

var tick10Config = NetConfig{Latency: 50 * time.Millisecond, Jitter: 300 * time.Millisecond}

// BenchmarkNetworkTick10NodeScan runs the tick on the reference model:
// every tick scans, partitions, and sorts the full in-transit set of
// per-recipient envelopes.
func BenchmarkNetworkTick10NodeScan(b *testing.B) {
	benchNetworkTick10Node(b, newRefNetwork(tick10Config, sim.NewRNG(1)))
}

// BenchmarkNetworkTick10NodeHeap pops only the due parcels off the
// min-heap.
func BenchmarkNetworkTick10NodeHeap(b *testing.B) {
	benchNetworkTick10Node(b, NewNetwork(tick10Config, sim.NewRNG(1)))
}

// BenchmarkNetworkBeaconRound400 is one status-beacon round of a
// 200-pair fleet (400 endpoints) on the default 50 ms channel: 200
// broadcasts, then the delivery tick and every endpoint's Receive.
// One op therefore moves 79,800 recipient copies.
func BenchmarkNetworkBeaconRound400(b *testing.B) {
	n := NewNetwork(NetConfig{Latency: 50 * time.Millisecond}, sim.NewRNG(1))
	ids := make([]string, 400)
	for i := range ids {
		ids[i] = fmt.Sprintf("v%d", i)
		n.MustRegister(ids[i])
	}
	msgs := make([]Message, 200)
	for i := range msgs {
		msgs[i] = NewMessage(ids[2*i], Broadcast, TypeStatus, TopicStatus,
			map[string]string{KeyMode: "nominal", KeyX: "1.0", KeyY: "2.0"})
	}
	round := func(i int) {
		for _, m := range msgs {
			n.Send(m)
		}
		n.Deliver(time.Duration(i) * time.Second)
		for _, id := range ids {
			n.Receive(id)
		}
	}
	for i := 0; i < 3; i++ { // grow the inboxes and scratch buffers
		round(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round(i + 3)
	}
}
