// Command perfbench is coopmrm's benchmark: three workloads —
// campaign, fleet and serve — that each build their inputs from a
// seed, time the program from outside through its public packages,
// check the simulated output against recorded digests, and print one
// JSON result line. See README.md for the workloads and metrics.
//
//	bash perfbench/run.sh --workload fleet --seed 3 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// heldOutSeed is the seed whose digests were recorded only after the
// benchmark was built, never used while tuning it.
const heldOutSeed = 97

// workers is the number of busy goroutines a workload may use: the
// two CPUs of the host the benchmark was defined on.
const workers = 2

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the untraced run's metrics with their units. Each
// workload defines every one; README.md gives the per-workload
// meaning and the issue-level names (seeds_per_s, sim_speed, …).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"peak_heap_mb", "MiB"},
}

// perLayer lists the traced run's metrics reported in the result
// line: shares, counts and sizes, which read 0 on a workload that
// does not exercise the layer. Per-layer timings, which exist only on
// the workloads that reach the layer, are printed in the summary
// lines above the result instead.
var perLayer = []struct{ name, unit string }{
	{"runner.worker_idle_share", "share"},
	{"sim.pre_hooks_share", "share"},
	{"sim.entities_share", "share"},
	{"sim.post_hooks_share", "share"},
	{"sim.events_per_tick", "count"},
	{"comm.sent_per_tick", "count"},
	{"comm.dropped_share", "share"},
	{"comm.pending_max", "count"},
	{"core.manoeuvres_per_cell", "count"},
	{"core.replans_per_cell", "count"},
	{"traj.obstacles", "count"},
	{"geom.pairs_useful_share", "share"},
	{"world.route_cache_hit_share", "share"},
	{"artifact.checkpoint_bytes", "B"},
	{"artifact.tar_bytes_p50", "B"},
	{"server.cache_hit_share", "share"},
	{"server.coalesced", "count"},
	{"server.evictions", "count"},
	{"server.runs_per_job", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cpu_share", "share"},
	{"trace.overhead_share", "share"},
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: campaign, fleet or serve")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "measurement budget in seconds")
	traceFlag := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	workdir := flag.String("workdir", ".bench_build/run", "scratch directory for temp state, spans and profiles")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	record := flag.String("record", "", "print the output digests of these comma-separated seeds for the workload and exit")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want campaign, fleet or serve)\n", *name)
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	scratch, err := os.MkdirTemp(*workdir, *name+"-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	if *record != "" {
		return recordDigests(w, scratch, *record)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	budget := time.Duration(*seconds) * time.Second
	want, listed := recordedDigest(*name, *seed)
	var res result
	if *traceFlag == 0 {
		m, err := measure(w, scratch, *seed, budget, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
			return 1
		}
		m.checkDigest(want, listed)
		printSummary(w, m, nil)
		res = m.endToEndResult(w)
	} else {
		// Half the budget untraced (the reference digest and the
		// overhead baseline), half traced.
		base, err := measure(w, scratch, *seed, budget/2, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
			return 1
		}
		base.checkDigest(want, listed)
		tr := newTracer()
		m, err := measure(w, scratch, *seed, budget/2, tr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s traced: %v\n", *name, err)
			return 1
		}
		m.checkDigest(base.digest, true)
		m.layer["trace.overhead_share"] = share(base.throughput(), m.throughput()) - 1
		spansPath := filepath.Join(*workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))
		if err := tr.write(spansPath); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		printSummary(w, m, tr)
		fmt.Printf("# spans: %d written to %s\n", len(tr.spans), spansPath)
		res = m.perLayerResult()
		res.Attempted += base.attempted
		res.Failed += base.failed
		res.Correct = res.Correct && base.failed == 0
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: output check failed\n", *name)
		return 1
	}
	return 0
}

// recordDigests prints the digest of each listed seed, for
// digests.json.
func recordDigests(w workload, dir, list string) int {
	out := map[string]string{}
	for _, f := range strings.Split(list, ",") {
		var s int64
		if _, err := fmt.Sscan(f, &s); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: bad seed %q\n", f)
			return 2
		}
		p, err := w.pass(dir, s, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: seed %d: %v\n", s, err)
			return 1
		}
		if p.failed > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: seed %d: %d operations failed\n", s, p.failed)
			return 1
		}
		out[fmt.Sprint(s)] = p.digest
	}
	b, _ := json.MarshalIndent(out, "", "  ")
	fmt.Println(string(b))
	return 0
}

// printSummary writes the human-readable lines above the result:
// every metric under its issue-level name, the sample counts behind
// the percentiles, and (traced) the self-time summary.
func printSummary(w workload, m *measurement, tr *tracer) {
	fmt.Printf("# workload %s: %d passes, %d ops attempted, %d failed, output check %s (digest %s)\n",
		w.name, m.passes, m.attempted, m.failed, verdict(m.failed == 0), m.digest)
	fmt.Printf("# per-pass throughput (1/s): %.6g\n", m.rates)
	fmt.Printf("# %s: %d samples, reported tail p%g (the tail rule admits p%g)\n",
		w.latencyWhat, len(m.lat), w.tailP, tailPercentile(len(m.lat)))
	if tr == nil {
		vals := m.endToEnd(w)
		for _, e := range endToEnd {
			n, ok := w.names[e.name]
			if !ok {
				n = issueName{e.name, e.unit, 1}
			}
			fmt.Printf("# %-20s %14.6f %s\n", n.name, vals[e.name]*n.scale, n.unit)
		}
		return
	}
	keys := make([]string, 0, len(m.layer))
	for k := range m.layer {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("# %-32s %16.6f\n", k, m.layer[k])
	}
	printSelfTimes(os.Stdout, w.name, selfTimes(tr.spans))
}

func verdict(ok bool) string {
	if ok {
		return "ok"
	}
	return "MISMATCH"
}
