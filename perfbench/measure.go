package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// workload is one named benchmark workload. A pass does a fixed
// amount of work fully determined by the seed, so its digest is
// comparable across passes, runs and machines; a measurement repeats
// passes until the time budget is spent and the tail percentile has
// enough samples.
type workload struct {
	name string
	// tailP is the latency percentile reported as latency_tail_ms; a
	// run measures until the tail rule admits it.
	tailP       float64
	latencyWhat string
	// pass runs one pass, keeping temporary state under dir.
	pass func(dir string, seed int64, tr *tracer) (*pass, error)
	// names gives end-to-end metrics their workload-level names in the
	// summary lines.
	names map[string]issueName
	// layers derives the per-layer metrics of a traced measurement
	// from the merged samples.
	layers func(m *measurement) map[string]float64
}

var workloads = map[string]workload{
	"campaign": campaignWorkload,
	"fleet":    fleetWorkload,
	"serve":    serveWorkload,
}

// pass is one fixed unit of work and what was observed during it.
type pass struct {
	digest    string
	setup     time.Duration
	ops       float64       // operations completed in the timed phase
	allocOps  float64       // operations allocations are shared over (default ops)
	wall      time.Duration // the timed phase's wall time
	lat       []float64     // latency samples, ms
	attempted int
	failed    int
	// samples holds per-layer observations (traced passes only).
	samples map[string][]float64
}

func (p *pass) sample(name string, v float64) {
	if p.samples == nil {
		p.samples = make(map[string][]float64)
	}
	p.samples[name] = append(p.samples[name], v)
}

// measurement aggregates the passes of one run.
type measurement struct {
	passes            int
	digest            string
	setups, rates     []float64
	lat               []float64
	attempted, failed int
	ops, allocOps     float64
	peakHeap          float64 // bytes, heapPercentile of the per-GC live heap
	allocBytes        float64
	gcCPU, totalCPU   float64
	samples           map[string][]float64
	layer             map[string]float64
}

func (m *measurement) throughput() float64 { return median(m.rates) }

// heapPercentile picks the reported peak from the live heap after each
// GC cycle. The very largest cycle depends on where collections fall
// relative to short-lived allocation bursts; the 95th percentile of
// hundreds of cycles does not rest on one of them.
const heapPercentile = 95

var errNoDigest = errors.New("pass produced no digest")

// processDeadline keeps every run inside the three-minute limit
// whatever the host speed.
var processDeadline = time.Now().Add(150 * time.Second)

func measure(w workload, dir string, seed int64, budget time.Duration, tr *tracer) (*measurement, error) {
	m := &measurement{samples: make(map[string][]float64)}
	runtime.GC()
	before := readRuntime()
	stopHeap := sampleLiveHeap()
	start := time.Now()
	for {
		p, err := w.pass(dir, seed, tr)
		if err != nil {
			stopHeap()
			return nil, err
		}
		if p.digest == "" {
			stopHeap()
			return nil, errNoDigest
		}
		m.passes++
		m.attempted += p.attempted
		m.failed += p.failed
		if m.digest == "" {
			m.digest = p.digest
		} else if p.digest != m.digest {
			m.failed += p.attempted - p.failed
		}
		m.setups = append(m.setups, p.setup.Seconds())
		m.rates = append(m.rates, share(p.ops, p.wall.Seconds()))
		m.lat = append(m.lat, p.lat...)
		m.ops += p.ops
		if p.allocOps == 0 {
			p.allocOps = p.ops
		}
		m.allocOps += p.allocOps
		for k, v := range p.samples {
			m.samples[k] = append(m.samples[k], v...)
		}
		now := time.Now()
		if now.After(processDeadline) ||
			(now.Sub(start) >= budget && tailPercentile(len(m.lat)) >= w.tailP) {
			break
		}
	}
	m.peakHeap = percentile(stopHeap(), heapPercentile)
	after := readRuntime()
	m.allocBytes = after[0] - before[0]
	m.gcCPU = after[1] - before[1]
	m.totalCPU = after[2] - before[2]
	if tr != nil {
		m.layer = w.layers(m)
		m.layer["runtime.alloc_bytes_per_op"] = share(m.allocBytes, m.allocOps)
		m.layer["runtime.gc_cpu_share"] = share(m.gcCPU, m.totalCPU)
	}
	return m, nil
}

// checkDigest fails every operation when the run's output differs
// from the expected digest.
func (m *measurement) checkDigest(want string, check bool) {
	if check && m.digest != want {
		fmt.Printf("# output check: digest %s, want %s\n", m.digest, want)
		m.failed = m.attempted
	}
}

// issueName is an end-to-end metric's name on one workload; the
// summary prints the value times scale.
type issueName struct {
	name, unit string
	scale      float64
}

func (m *measurement) endToEnd(w workload) map[string]float64 {
	return map[string]float64{
		"setup_s":          median(m.setups),
		"throughput_per_s": m.throughput(),
		"latency_p50_ms":   percentile(m.lat, 50),
		"latency_tail_ms":  percentile(m.lat, w.tailP),
		"peak_heap_mb":     m.peakHeap / (1 << 20),
	}
}

func (m *measurement) endToEndResult(w workload) result {
	vals := m.endToEnd(w)
	res := result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed,
		Metrics: make(map[string]metric)}
	for _, e := range endToEnd {
		res.Metrics[e.name] = metric{Value: vals[e.name], Unit: e.unit}
	}
	return res
}

func (m *measurement) perLayerResult() result {
	res := result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed,
		Metrics: make(map[string]metric)}
	for _, l := range perLayer {
		res.Metrics[l.name] = metric{Value: m.layer[l.name], Unit: l.unit}
	}
	return res
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// readRuntime returns cumulative allocated bytes, GC CPU seconds and
// total CPU seconds.
func readRuntime() [3]float64 {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	var out [3]float64
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// sampleLiveHeap records the live heap after every GC cycle (polled,
// so cycles closer together than the poll interval count once) until
// the returned stop function is called; stop waits for the poller to
// exit and returns the samples.
func sampleLiveHeap() (stop func() []float64) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	var live []float64
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	cycles := s[0].Value.Uint64()
	read := func() {
		metrics.Read(s)
		if c := s[0].Value.Uint64(); c != cycles {
			cycles = c
			live = append(live, float64(s[1].Value.Uint64()))
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				read()
			}
		}
	}()
	return func() []float64 {
		close(done)
		wg.Wait()
		read()
		if len(live) == 0 {
			live = append(live, float64(s[1].Value.Uint64()))
		}
		return live
	}
}

//go:embed digests.json
var digestsJSON []byte

// recordedDigest returns the digest digests.json records for the
// workload and seed.
func recordedDigest(workload string, seed int64) (string, bool) {
	var all map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		panic(fmt.Sprintf("digests.json: %v", err))
	}
	d, ok := all[workload][fmt.Sprint(seed)]
	return d, ok
}
