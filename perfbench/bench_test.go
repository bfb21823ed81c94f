package main

import (
	"slices"
	"sync"
	"testing"
	"time"

	"coopmrm"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 0 && beyond(c.n, p) < 10 {
			t.Errorf("n=%d: p%g leaves %d samples beyond it", c.n, p, beyond(c.n, p))
		}
	}
	// Every workload reports a tail percentile on the ladder.
	for name, w := range workloads {
		if !slices.Contains(tailLadder, w.tailP) {
			t.Errorf("%s reports p%g, not a tail-rule percentile", name, w.tailP)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{1, 1}, {20, 1}, {50, 3}, {80, 4}, {100, 5}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input")
	}
}

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Two overlapping children cover [10, 50); a third sticks out
		// of the parent and only [90, 100) counts.
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 50},
		{ID: 4, Parent: 1, Name: "late", Start: 90, End: 120},
		// A grandchild is charged to its parent, not to root.
		{ID: 5, Parent: 2, Name: "leaf", Start: 15, End: 25},
	}
	got := map[string]layerTime{}
	for _, r := range selfTimes(spans) {
		got[r.Name] = r
	}
	want := map[string]struct {
		count       int
		total, self time.Duration
	}{
		"root":  {1, 100, 100 - 40 - 10},
		"child": {2, 50, 50 - 10},
		"late":  {1, 30, 30},
		"leaf":  {1, 10, 10},
	}
	for name, w := range want {
		g := got[name]
		if g.Count != w.count || g.Total != w.total || g.Self != w.self {
			t.Errorf("%s: got count %d total %d self %d, want %d %d %d",
				name, g.Count, g.Total, g.Self, w.count, w.total, w.self)
		}
	}
}

func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	start := time.Unix(1000, 0)
	interval := 10 * time.Millisecond
	// The generator stalls 25 ms before send 2, so sends 2 and 3 start
	// late. Each send must still be handed its scheduled due time, from
	// which it measures its latency, and the lateness must be reported.
	now := start
	sleep := func(due time.Time) time.Time {
		if due.Equal(start.Add(2 * interval)) {
			now = now.Add(25 * time.Millisecond)
		}
		if now.Before(due) {
			now = due
		}
		return now
	}
	dues := make([]time.Time, 4)
	late := openLoop(4, start, interval, sleep, func(i int, due time.Time) { dues[i] = due })
	wantLate := []time.Duration{0, 0, 15 * time.Millisecond, 5 * time.Millisecond}
	for i := range late {
		if late[i] != wantLate[i] {
			t.Errorf("late[%d] = %v, want %v", i, late[i], wantLate[i])
		}
		if want := start.Add(time.Duration(i) * interval); !dues[i].Equal(want) {
			t.Errorf("send %d was due at %v, want the scheduled %v", i, dues[i].Sub(start), want.Sub(start))
		}
	}
}

func TestServeJobMix(t *testing.T) {
	a, b := serveJobs(7, 100), serveJobs(7, 100)
	seen := map[string]bool{}
	repeats := 0
	for i := range a {
		if a[i].Experiment != b[i].Experiment || a[i].Options != b[i].Options {
			t.Fatalf("job %d differs between two generations", i)
		}
		key := a[i].Experiment + "/" + time.Duration(a[i].Options.Seed).String()
		if seen[key] {
			repeats++
		}
		seen[key] = true
	}
	if repeats != 40 {
		t.Errorf("%d repeats in 100 submissions, want 40", repeats)
	}
}

// The fleet digest is stable across runs, and the traced run's phase
// marks and probes leave it unchanged.
func TestFleetDigestStableAndTraceNeutral(t *testing.T) {
	cfg := fleetConfig(3)
	cfg.Pairs = 12
	var digests []string
	for _, tr := range []*tracer{nil, nil, newTracer()} {
		p, err := runFleet(cfg, 120, tr)
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, p.digest)
	}
	if digests[0] != digests[1] || digests[0] != digests[2] {
		t.Errorf("fleet digests differ: %v", digests)
	}
}

// The traced campaign's E19 replica reproduces RunE19 byte for byte.
func TestE19ReplicaMatchesRunE19(t *testing.T) {
	opt := coopmrm.Options{Seed: 5, Quick: true}
	want := coopmrm.RunE19(opt)
	d := &e19Replica{tr: newTracer(), p: &pass{}, mu: new(sync.Mutex)}
	got := d.runE19(opt, 0)
	if got.CSV() != want.CSV() || tableDigest(got) != tableDigest(want) {
		t.Errorf("E19 replica table differs from RunE19:\n%s\nwant\n%s", got.CSV(), want.CSV())
	}
	if len(d.p.samples["sim.ticks"]) != 3*len(e19Classes)*len(e19Faults) {
		t.Errorf("replica ran %d cells", len(d.p.samples["sim.ticks"]))
	}
}

func TestCampaignAndServeDigestsStable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two campaign and two serve passes")
	}
	dir := t.TempDir()
	for _, w := range []workload{campaignWorkload, serveWorkload} {
		a, err := w.pass(dir, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.pass(dir, 2, newTracer())
		if err != nil {
			t.Fatal(err)
		}
		if a.failed != 0 || b.failed != 0 {
			t.Errorf("%s: failed operations %d, %d", w.name, a.failed, b.failed)
		}
		if a.digest != b.digest {
			t.Errorf("%s: untraced digest %s, traced %s", w.name, a.digest, b.digest)
		}
	}
}

func TestRecordedDigestsParse(t *testing.T) {
	for _, w := range workloads {
		if _, ok := recordedDigest(w.name, heldOutSeed); !ok {
			t.Errorf("%s: no digest recorded for the held-out seed %d", w.name, heldOutSeed)
		}
	}
}
