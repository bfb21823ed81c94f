package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"coopmrm/internal/sim"
)

// span is one timed interval at a layer boundary. Spans of one seed,
// tick or job share a Trace ID; Parent is the ID of the enclosing
// span (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the benchmark ends. A nil
// *tracer records nothing, so untraced runs pay only a nil check at
// each boundary.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id reserves a span ID before the span ends, so children recorded
// first can name their parent.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores a finished span under a reserved ID.
func (t *tracer) record(id, parent, trace int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// add records a leaf span that needs no reserved ID.
func (t *tracer) add(parent, trace int64, name string, start, end time.Time) {
	t.record(t.id(), parent, trace, name, start, end)
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTime is one row of the self-time summary.
type layerTime struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes sums, per span name, the spans' total and self time. A
// span's self time is its duration minus the part of its interval its
// children cover; overlapping children (parallel work under one
// parent) are counted once, and the part of a child outside its
// parent's interval is ignored.
func selfTimes(spans []span) []layerTime {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	rows := make(map[string]*layerTime)
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerTime{Name: s.Name}
			rows[s.Name] = r
		}
		dur := s.End - s.Start
		r.Count++
		r.Total += time.Duration(dur)
		r.Self += time.Duration(dur - covered(s.Start, s.End, children[s.ID]))
	}
	out := make([]layerTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// covered returns the length of the union of the intervals clipped to
// [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = slices.Clone(ivs)
	slices.SortFunc(ivs, func(a, b [2]int64) int {
		switch {
		case a[0] < b[0]:
			return -1
		case a[0] > b[0]:
			return 1
		}
		return 0
	})
	var sum int64
	cur := lo // everything before cur is already counted
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			sum += e - s
			cur = e
		}
	}
	return sum
}

// printSelfTimes writes the per-layer self-time summary.
func printSelfTimes(w io.Writer, workload string, rows []layerTime) {
	fmt.Fprintf(w, "# %s self time by layer (span count, total ms, self ms)\n", workload)
	for _, r := range rows {
		fmt.Fprintf(w, "#   %-22s %9d %12.3f %12.3f\n", r.Name, r.Count, ms(r.Total), ms(r.Self))
	}
}

// phaseMarks splits ticks into their three phases from outside the
// engine. A pre-hook appended after the rig's wiring runs last among
// the pre-hooks, and a no-op sentinel entity registered last steps
// after every other entity; RunTick's return ends the post-hooks.
// Marks must be installed again on a rig that was Reset, since Reset
// drops registrations.
type phaseMarks struct{ preEnd, entEnd time.Time }

func (pm *phaseMarks) install(e *sim.Engine) {
	e.AddPreHook(func(*sim.Env) { pm.preEnd = time.Now() })
	e.MustRegister(sentinel{pm})
}

type sentinel struct{ pm *phaseMarks }

func (sentinel) ID() string { return "perfbench.sentinel" }

func (s sentinel) Step(*sim.Env) { s.pm.entEnd = time.Now() }

// phases returns the pre-hook, entity and post-hook durations of the
// tick that ran from start to end.
func (pm *phaseMarks) phases(start, end time.Time) (pre, ent, post time.Duration) {
	return pm.preEnd.Sub(start), pm.entEnd.Sub(pm.preEnd), end.Sub(pm.entEnd)
}
