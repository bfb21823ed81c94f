package scenario

import (
	"reflect"
	"testing"
	"time"

	"coopmrm/internal/fault"
	"coopmrm/internal/sensor"
)

// checkFeeds wraps the neighbour feed of every haul agent's obstacle
// monitor so each call compares the shared fleet view with a live
// rebuild of every constituent's position at the moment of the call.
// It returns a counter of checked calls.
func checkFeeds(t *testing.T, rig *QuarryRig) *int64 {
	t.Helper()
	calls := new(int64)
	for _, h := range rig.Hauls {
		m := h.Monitor()
		if m == nil {
			t.Fatalf("haul agent %s has no obstacle monitor", h.ID())
		}
		view := m.Neighbors
		m.Neighbors = func() []sensor.Target {
			got := view()
			var want []sensor.Target
			for _, c := range rig.all() {
				want = append(want, sensor.Target{ID: c.ID(), Pos: c.Body().Position()})
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("tick %d: fleet view diverges from a live rebuild\nview: %v\nlive: %v",
					rig.Engine.Env().Clock.Tick(), got, want)
			}
			*calls++
			return got
		}
	}
	return calls
}

// TestFleetViewMatchesLiveRebuild holds the per-tick shared neighbour
// view to the per-call rebuild it replaces: on a 20-pair
// status-sharing quarry with a mid-run sensor fault (the faulted
// truck's suite goes blind, so its monitor sees only itself), every
// feed call must return exactly the live fleet positions. The subtest
// keeps its "shards=1" name from when a sharded engine also existed;
// one shard is the sequential engine, the only one there is.
func TestFleetViewMatchesLiveRebuild(t *testing.T) {
	const horizon = 40 * time.Second
	t.Run("shards=1", func(t *testing.T) {
		cfg := QuarryConfig{
			Pairs: 20, Policy: PolicyStatusSharing, Seed: 5,
			Faults: []fault.Fault{{ID: "blind", Target: "truck4_1", Kind: fault.KindSensor,
				Severity: 1, At: 15 * time.Second, ClearAt: 30 * time.Second}},
		}
		rig, err := NewQuarry(cfg)
		if err != nil {
			t.Fatal(err)
		}
		calls := checkFeeds(t, rig)
		rig.Run(horizon)
		if want := int64(len(rig.Hauls)) * int64(horizon/(100*time.Millisecond)); *calls < want/2 {
			t.Fatalf("only %d feed calls checked (at most %d possible)", *calls, want)
		}
	})
}
