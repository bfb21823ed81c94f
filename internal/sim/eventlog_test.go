package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// randomEventStream appends n events with kinds and subjects drawn
// from small pools (so collisions are common) plus occasional
// never-matching outliers.
func randomEventStream(rng *RNG, n int) *EventLog {
	kinds := []EventKind{
		EventInfo, EventMRMStarted, EventMRCReached, EventNearMiss,
		EventTaskDone, EventKind("custom.kind"),
	}
	subjects := []string{"truck1", "digger1", "tms", "crane", ""}
	l := NewEventLog()
	for i := 0; i < n; i++ {
		l.Append(Event{
			Time:    time.Duration(i) * 100 * time.Millisecond,
			Tick:    int64(i),
			Kind:    kinds[rng.Intn(len(kinds))],
			Subject: subjects[rng.Intn(len(subjects))],
			Detail:  fmt.Sprintf("d%d", rng.Intn(3)),
		})
	}
	return l
}

// The differential guarantee of the event-log index: every query
// method must agree with its pre-index linear-scan oracle on
// randomized streams, including kinds and subjects that never occur.
func TestEventLogIndexMatchesScanOracle(t *testing.T) {
	rng := NewRNG(7)
	for trial := 0; trial < 20; trial++ {
		l := randomEventStream(rng, rng.Intn(400))
		queryKinds := []EventKind{
			EventInfo, EventMRMStarted, EventMRCReached, EventNearMiss,
			EventTaskDone, EventKind("custom.kind"), EventKind("absent.kind"),
		}
		for _, k := range queryKinds {
			if got, want := l.Count(k), l.countScan(k); got != want {
				t.Fatalf("trial %d: Count(%s) = %d, scan oracle %d", trial, k, got, want)
			}
			if got, want := l.ByKind(k), l.byKindScan(k); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: ByKind(%s) diverges from scan oracle", trial, k)
			}
			gf, okf := l.First(k)
			wf, wokf := l.firstScan(k)
			if okf != wokf || !reflect.DeepEqual(gf, wf) {
				t.Fatalf("trial %d: First(%s) = (%+v, %v), scan oracle (%+v, %v)", trial, k, gf, okf, wf, wokf)
			}
			gl, okl := l.Last(k)
			wl, wokl := l.lastScan(k)
			if okl != wokl || !reflect.DeepEqual(gl, wl) {
				t.Fatalf("trial %d: Last(%s) = (%+v, %v), scan oracle (%+v, %v)", trial, k, gl, okl, wl, wokl)
			}
		}
		for _, s := range []string{"truck1", "digger1", "tms", "crane", "", "ghost"} {
			if got, want := l.BySubject(s), l.bySubjectScan(s); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: BySubject(%q) diverges from scan oracle", trial, s)
			}
			if got, want := l.CountSubject(s), len(l.bySubjectScan(s)); got != want {
				t.Fatalf("trial %d: CountSubject(%q) = %d, scan oracle %d", trial, s, got, want)
			}
		}
		if got, want := l.KindHistogram(), l.kindHistogramScan(); !reflect.DeepEqual(got, want) {
			// The scan oracle allocates an empty map for an empty log;
			// the index returns an empty map too — compare contents.
			if len(got) != 0 || len(want) != 0 {
				t.Fatalf("trial %d: KindHistogram diverges: %v vs %v", trial, got, want)
			}
		}
	}
}

// ReadJSON must rebuild the index, not just the event array.
func TestEventLogReadJSONRebuildsIndex(t *testing.T) {
	l := randomEventStream(NewRNG(3), 100)
	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Count(EventInfo) != l.Count(EventInfo) {
		t.Errorf("round-trip Count = %d, want %d", back.Count(EventInfo), l.Count(EventInfo))
	}
	if !reflect.DeepEqual(back.ByKind(EventNearMiss), l.ByKind(EventNearMiss)) {
		t.Error("round-trip ByKind diverges")
	}
	if !reflect.DeepEqual(back.KindHistogram(), l.KindHistogram()) {
		t.Error("round-trip KindHistogram diverges")
	}
}

// The point of the index: the point queries allocate nothing. ByKind
// and BySubject allocate exactly their result slice (O(matches)), so
// they are not asserted to zero here.
func TestEventLogPointQueriesAllocFree(t *testing.T) {
	l := randomEventStream(NewRNG(11), 5000)
	allocs := testing.AllocsPerRun(100, func() {
		_ = l.Count(EventInfo)
		_, _ = l.First(EventMRCReached)
		_, _ = l.Last(EventMRCReached)
		_ = l.CountSubject("truck1")
	})
	if allocs != 0 {
		t.Errorf("point queries allocate %v allocs/op, want 0", allocs)
	}
}

// benchLogQueries is the per-tick stop-condition query mix: a Count, a
// First, and a Last against a log of the given size.
func benchLogQueries(b *testing.B, n int, scan bool) {
	b.Helper()
	l := randomEventStream(NewRNG(1), n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if scan {
			_ = l.countScan(EventMRCReached)
			_, _ = l.firstScan(EventMRMStarted)
			_, _ = l.lastScan(EventMRCReached)
		} else {
			_ = l.Count(EventMRCReached)
			_, _ = l.First(EventMRMStarted)
			_, _ = l.Last(EventMRCReached)
		}
	}
}

// BenchmarkEventLogQueryScan50k is the pre-change oracle: every query
// walks all 50k events.
func BenchmarkEventLogQueryScan50k(b *testing.B) { benchLogQueries(b, 50_000, true) }

// BenchmarkEventLogQueryIndexed50k is the indexed path: the same query
// mix in O(1).
func BenchmarkEventLogQueryIndexed50k(b *testing.B) { benchLogQueries(b, 50_000, false) }

// BenchmarkEventLogAppend measures the index maintenance overhead on
// the emit path.
func BenchmarkEventLogAppend(b *testing.B) {
	e := Event{Kind: EventInfo, Subject: "truck1", Detail: "beacon"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := NewEventLog()
		for j := 0; j < 1000; j++ {
			l.Append(e)
		}
	}
}

// Reset must leave a log empty but with its indexes alive.
func TestEventLogResetKeepCapacity(t *testing.T) {
	l := NewEventLog()
	l.Append(Event{Kind: EventInfo, Subject: "x"})
	l.Append(Event{Kind: EventMRMStarted, Subject: "y"})
	l.Reset()
	if l.Len() != 0 || len(l.ByKind(EventInfo)) != 0 || len(l.BySubject("x")) != 0 {
		t.Errorf("reset log not empty: len=%d", l.Len())
	}
	l.Append(Event{Kind: EventInfo, Subject: "x"})
	if l.Len() != 1 || len(l.BySubject("x")) != 1 {
		t.Error("log unusable after reset")
	}
}
