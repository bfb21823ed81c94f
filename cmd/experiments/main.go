// Command experiments regenerates every table and figure of the paper
// as simulation outputs (the E1..E20 index in DESIGN.md).
//
// Usage:
//
//	experiments [-run E3,E5] [-quick] [-seed 7] [-list]
//	            [-parallel N] [-reuse-rigs]
//	            [-seeds 1..32] [-format text|csv|markdown]
//	            [-stream] [-checkpoint FILE] [-checkpoint-every N] [-resume]
//	            [-out DIR] [-cpuprofile FILE] [-memprofile FILE] [-exectrace FILE]
//
// Jobs fan out across a bounded worker pool (-parallel, default one
// worker per CPU); output is emitted in index order and is
// byte-identical to the serial path (-parallel 1) for any worker
// count. -seeds runs each selected experiment once per seed and
// aggregates the per-seed tables (numeric cells become mean±sd).
//
// -stream switches the seed sweep to the streaming campaign path:
// per-seed tables fold into per-cell Welford accumulators in seed
// order as jobs complete, so memory is O(rows×cols) regardless of the
// seed count, and aggregated numeric cells render as
// "mean±sd [n=…, ci=…]" (Bessel-corrected sd, 95% CI half-width).
// -checkpoint FILE writes a campaign/v1 checkpoint atomically every
// -checkpoint-every folded seeds; -resume continues an interrupted
// campaign from the checkpoint, and the resumed table is
// byte-identical to an uninterrupted run. -abort-after is the testing
// hook that exercises exactly that path.
//
// -out writes one machine-readable artifact bundle per experiment
// (table.json, runs.json, events/*.jsonl, trace/*.jsonl — see
// EXPERIMENTS.md for the schema) plus a run-level bench.json with the
// wall-clock accounting. Bundle bytes depend only on the selected
// experiments and seeds, never on -parallel; bench.json is the one
// intentionally non-deterministic file.
//
// The profiling flags wire the standard Go tooling through the runner:
// -cpuprofile and -memprofile write runtime/pprof profiles (inspect
// with `go tool pprof`), -exectrace writes a runtime/trace stream
// (inspect with `go tool trace`).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strings"

	"coopmrm"
	"coopmrm/internal/artifact"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	runIDs := fs.String("run", "", "comma-separated experiment/ablation IDs (default: all experiments)")
	quick := fs.Bool("quick", false, "shrink sweeps and horizons")
	seed := fs.Int64("seed", 1, "simulation seed")
	list := fs.Bool("list", false, "list experiments and exit")
	ablations := fs.Bool("ablations", false, "run the design ablations (A1..A5) instead of the experiments")
	format := fs.String("format", "text", "output format: text | csv | markdown")
	parallel := fs.Int("parallel", runtime.NumCPU(), "worker pool size; 1 runs serially, output is identical either way")
	reuseRigs := fs.Bool("reuse-rigs", false, "serve campaign rigs from the warm-rig pool (snapshot/reset) instead of constructing per seed; output is identical either way")
	seeds := fs.String("seeds", "", `seed sweep: "1..32", "3,5,9", or "x8" (derived from -seed); aggregates per-seed tables`)
	stream := fs.Bool("stream", false, "streaming seed-sweep campaign: fold per-seed tables online (memory independent of seed count); aggregated cells gain [n, 95% CI half-width]. Requires -seeds")
	checkpoint := fs.String("checkpoint", "", "campaign/v1 checkpoint file for -stream: written atomically every -checkpoint-every seeds and at completion (single experiment only)")
	checkpointEvery := fs.Int("checkpoint-every", 1000, "folded seeds between checkpoint writes")
	resume := fs.Bool("resume", false, "resume a -stream campaign from -checkpoint when the file exists (must match experiment, options and seed list)")
	abortAfter := fs.Int("abort-after", 0, "testing hook: abort the streaming campaign after this many folded seeds (0 = never); exercises checkpoint/resume")
	outDir := fs.String("out", "", "write per-experiment artifact bundles and bench.json under this directory")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit (go tool pprof)")
	execTrace := fs.String("exectrace", "", "write a runtime execution trace to this file (go tool trace)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, e := range append(coopmrm.AllExperiments(), coopmrm.AllAblations()...) {
			fmt.Fprintf(stdout, "%-4s %-55s reproduces %s\n", e.ID, e.Title, e.Paper)
		}
		return nil
	}

	stopProfiling, err := startProfiling(*cpuProfile, *memProfile, *execTrace)
	if err != nil {
		return err
	}
	defer stopProfiling()

	selected := coopmrm.AllExperiments()
	if *ablations {
		selected = coopmrm.AllAblations()
	}
	if *runIDs != "" {
		selected = selected[:0]
		for _, id := range strings.Split(*runIDs, ",") {
			id = strings.TrimSpace(id)
			e, ok := coopmrm.ExperimentByID(id)
			if !ok {
				e, ok = coopmrm.AblationByID(id)
			}
			if !ok {
				return fmt.Errorf("unknown experiment %q (try -list)", id)
			}
			selected = append(selected, e)
		}
	}

	render := func(table coopmrm.Table) error {
		switch *format {
		case "text":
			fmt.Fprintln(stdout, table.Render())
		case "csv":
			fmt.Fprintf(stdout, "# %s — %s\n%s\n", table.ID, table.Title, table.CSV())
		case "markdown":
			fmt.Fprintln(stdout, table.Markdown())
		default:
			return fmt.Errorf("unknown format %q", *format)
		}
		return nil
	}

	opt := coopmrm.Options{Seed: *seed, Quick: *quick, ReuseRigs: *reuseRigs}

	var seedList []int64
	if *seeds != "" {
		seedList, err = coopmrm.ParseSeedSpec(*seeds, *seed)
		if err != nil {
			return err
		}
	}

	if *stream && seedList == nil {
		return fmt.Errorf("-stream requires -seeds")
	}
	if !*stream && (*checkpoint != "" || *resume || *abortAfter > 0) {
		return fmt.Errorf("-checkpoint/-resume/-abort-after require -stream")
	}
	if *checkpoint != "" && len(selected) != 1 {
		return fmt.Errorf("-checkpoint runs one campaign per file; select exactly one experiment (-run)")
	}
	var cfg coopmrm.CampaignConfig
	if *stream {
		cfg = coopmrm.CampaignConfig{
			Checkpoint: *checkpoint,
			Every:      *checkpointEvery,
			Resume:     *resume,
		}
		if *abortAfter > 0 {
			n := *abortAfter
			cfg.OnFold = func(done, total int) error {
				if done >= n {
					return fmt.Errorf("campaign aborted after %d of %d seeds (-abort-after testing hook)", done, total)
				}
				return nil
			}
		}
	}

	if *outDir != "" {
		if *stream {
			return runStreamWithArtifacts(stdout, render, selected, opt, seedList, *parallel, *seed, *outDir, cfg)
		}
		return runWithArtifacts(stdout, render, selected, opt, seedList, *parallel, *seed, *outDir)
	}

	if *stream {
		for _, e := range selected {
			table, err := coopmrm.SweepSeedsStream(e, opt, seedList, *parallel, cfg)
			if err != nil {
				return err
			}
			if err := render(table); err != nil {
				return err
			}
		}
		return nil
	}

	if seedList != nil {
		for _, e := range selected {
			table, err := coopmrm.SweepSeeds(e, opt, seedList, *parallel)
			if err != nil {
				return err
			}
			if err := render(table); err != nil {
				return err
			}
		}
		return nil
	}

	tables, err := coopmrm.RunSet(selected, opt, *parallel)
	if err != nil {
		return err
	}
	for _, table := range tables {
		if err := render(table); err != nil {
			return err
		}
	}
	return nil
}

// runWithArtifacts is the -out path: the same experiment selection and
// rendering as the plain path, but every job records an artifact
// bundle and its wall time feeds bench.json.
func runWithArtifacts(stdout io.Writer, render func(coopmrm.Table) error,
	selected []coopmrm.Experiment, opt coopmrm.Options,
	seedList []int64, parallel int, seed int64, outDir string) error {
	seedCount := 1
	if seedList != nil {
		seedCount = len(seedList)
	}
	bench := artifact.NewBench(parallel, seed, seedCount, opt.Quick)

	var results []coopmrm.ExperimentArtifacts
	if seedList != nil {
		for _, e := range selected {
			res, err := coopmrm.SweepSeedsWithArtifacts(e, opt, seedList, parallel)
			if err != nil {
				return err
			}
			results = append(results, res)
		}
	} else {
		var err error
		results, err = coopmrm.RunSetWithArtifacts(selected, opt, parallel)
		if err != nil {
			return err
		}
	}

	for _, res := range results {
		if err := render(res.Table); err != nil {
			return err
		}
	}
	if err := coopmrm.WriteRunArtifacts(outDir, results, bench); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d artifact bundle(s) + bench.json under %s\n", len(results), outDir)
	return nil
}

// runStreamWithArtifacts is the -stream -out path: streaming campaign
// aggregation with run capture capped to the campaign's first seeds
// (capturing every run would reintroduce the O(seeds) retention the
// streaming path exists to remove) and per-seed wall statistics
// feeding the variance-aware bench gate.
func runStreamWithArtifacts(stdout io.Writer, render func(coopmrm.Table) error,
	selected []coopmrm.Experiment, opt coopmrm.Options,
	seedList []int64, parallel int, seed int64, outDir string,
	cfg coopmrm.CampaignConfig) error {
	bench := artifact.NewBench(parallel, seed, len(seedList), opt.Quick)
	var results []coopmrm.ExperimentArtifacts
	for _, e := range selected {
		res, err := coopmrm.SweepSeedsStreamWithArtifacts(e, opt, seedList, parallel, cfg)
		if err != nil {
			return err
		}
		results = append(results, res)
	}
	for _, res := range results {
		if err := render(res.Table); err != nil {
			return err
		}
	}
	if err := coopmrm.WriteRunArtifacts(outDir, results, bench); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d artifact bundle(s) + bench.json under %s\n", len(results), outDir)
	return nil
}

// startProfiling enables the requested profilers and returns the
// matching stop function (safe to call when nothing is enabled).
func startProfiling(cpuPath, memPath, tracePath string) (func(), error) {
	var stops []func()
	stop := func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		stops = append(stops, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			stop()
			return nil, fmt.Errorf("exectrace: %w", err)
		}
		if err := rtrace.Start(f); err != nil {
			f.Close()
			stop()
			return nil, fmt.Errorf("exectrace: %w", err)
		}
		stops = append(stops, func() {
			rtrace.Stop()
			f.Close()
		})
	}
	if memPath != "" {
		stops = append(stops, func() {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
			}
		})
	}
	return stop, nil
}
