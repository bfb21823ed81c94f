package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"coopmrm"
	"coopmrm/internal/artifact"
)

// The campaign workload is a streaming E19 (quick) campaign through
// coopmrm.SweepSeedsStream with workers runner goroutines and a
// campaign/v1 checkpoint every campaignEvery folds: the safety
// engineer's many-seed statistical run. One pass folds campaignSeeds
// outer seeds; each outer seed is a full quick RunE19 (3 inner seeds ×
// 9 faulted 2-pair quarry cells).
const (
	campaignSeeds = 48
	campaignEvery = 4
)

var campaignWorkload = workload{
	name:        "campaign",
	tailP:       90,
	latencyWhat: "per-outer-seed runner job wall",
	pass:        campaignPass,
	names: map[string]issueName{
		"throughput_per_s": {"seeds_per_s", "seeds/s", 1},
		"latency_p50_ms":   {"job_p50_ms", "ms", 1},
		"latency_tail_ms":  {"job_p90_ms", "ms", 1},
	},
	layers: campaignLayers,
}

// campaignSeedList is the pass's outer seed plan: campaignSeeds
// consecutive seeds starting from a block the workload seed selects.
func campaignSeedList(seed int64) []int64 {
	seeds := make([]int64, campaignSeeds)
	for i := range seeds {
		seeds[i] = seed*1000 + 1 + int64(i)
	}
	return seeds
}

func campaignPass(dir string, seed int64, tr *tracer) (*pass, error) {
	seeds := campaignSeedList(seed)
	p := &pass{attempted: len(seeds)}
	t0 := time.Now()
	dir, err := os.MkdirTemp(dir, "campaign-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ckpt := filepath.Join(dir, "campaign.json")
	e19, ok := coopmrm.ExperimentByID("E19")
	if !ok {
		return nil, fmt.Errorf("experiment E19 not found")
	}

	var (
		mu         sync.Mutex
		firstStart time.Time
		busy       time.Duration
	)
	cells := &e19Replica{tr: tr, p: p, mu: &mu}
	exp := e19
	exp.Run = func(o coopmrm.Options) coopmrm.Table {
		start := time.Now()
		mu.Lock()
		if firstStart.IsZero() {
			firstStart = start
		}
		mu.Unlock()
		var t coopmrm.Table
		id := tr.id()
		if tr == nil {
			t = e19.Run(o)
		} else {
			t = cells.runE19(o, id)
		}
		end := time.Now()
		tr.record(id, 0, o.Seed, "runner.job", start, end)
		mu.Lock()
		p.lat = append(p.lat, ms(end.Sub(start)))
		busy += end.Sub(start)
		mu.Unlock()
		return t
	}
	tab, err := coopmrm.SweepSeedsStream(exp, coopmrm.Options{Quick: true}, seeds, workers,
		coopmrm.CampaignConfig{Checkpoint: ckpt, Every: campaignEvery})
	end := time.Now()
	if err != nil {
		p.failed = p.attempted
		p.digest = "error: " + err.Error()
		return p, nil
	}
	p.setup = firstStart.Sub(t0)
	p.wall = end.Sub(t0)
	p.ops = float64(len(seeds))
	p.digest = tableDigest(tab)
	if tr != nil {
		p.sample("runner.worker_idle_share", 1-share(busy.Seconds(), workers*p.wall.Seconds()))
		if err := probeCheckpoint(p, tr, ckpt, filepath.Join(dir, "rewrite.json")); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// probeCheckpoint times a resume read and a rewrite of the campaign's
// final checkpoint.
func probeCheckpoint(p *pass, tr *tracer, path, rewrite string) error {
	t0 := time.Now()
	c, err := artifact.ReadCampaign(path)
	t1 := time.Now()
	if err != nil {
		return err
	}
	if err := artifact.WriteCampaign(rewrite, c); err != nil {
		return err
	}
	t2 := time.Now()
	st, err := os.Stat(rewrite)
	if err != nil {
		return err
	}
	tr.add(0, 0, "artifact.resume_read", t0, t1)
	tr.add(0, 0, "artifact.checkpoint", t1, t2)
	p.sample("artifact.resume_read_ms", ms(t1.Sub(t0)))
	p.sample("artifact.checkpoint_ms", ms(t2.Sub(t1)))
	p.sample("artifact.checkpoint_bytes", float64(st.Size()))
	return nil
}

// tableDigest hashes everything a table renders.
func tableDigest(t coopmrm.Table) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%s\x00%s\x00", t.ID, t.Title, t.Paper, t.Note)
	h.Write([]byte(t.CSV()))
	return hex.EncodeToString(h.Sum(nil))
}

func campaignLayers(m *measurement) map[string]float64 {
	s := m.samples
	pre, ent, post := sum(s["sim.pre_ms"]), sum(s["sim.entities_ms"]), sum(s["sim.post_ms"])
	tick := pre + ent + post
	ticks := sum(s["sim.ticks"])
	sent := sum(s["comm.sent"])
	hits, misses := sum(s["world.route_hits"]), sum(s["world.route_misses"])
	return map[string]float64{
		"runner.job_ms_p50":            percentile(m.lat, 50),
		"runner.worker_idle_share":     median(s["runner.worker_idle_share"]),
		"scenario.acquire_us_p50":      median(s["scenario.acquire_us"]),
		"sim.tick_us_p50":              median(s["sim.tick_us"]),
		"sim.pre_hooks_ms":             pre,
		"sim.entities_ms":              ent,
		"sim.post_hooks_ms":            post,
		"sim.pre_hooks_us_per_tick":    1000 * share(pre, ticks),
		"sim.entities_us_per_tick":     1000 * share(ent, ticks),
		"sim.post_hooks_us_per_tick":   1000 * share(post, ticks),
		"sim.pre_hooks_share":          share(pre, tick),
		"sim.entities_share":           share(ent, tick),
		"sim.post_hooks_share":         share(post, tick),
		"sim.events":                   sum(s["sim.events"]),
		"sim.events_per_tick":          share(sum(s["sim.events"]), ticks),
		"metrics.sample_us_p50":        median(s["metrics.sample_us"]),
		"metrics.report_us":            median(s["metrics.report_us"]),
		"comm.sent_per_tick":           share(sent, ticks),
		"comm.dropped_share":           share(sum(s["comm.dropped"]), sent),
		"comm.pending_max":             maxOf(s["comm.pending_max"]),
		"core.manoeuvres_per_cell":     mean(s["core.manoeuvres"]),
		"core.replans_per_cell":        mean(s["core.replans"]),
		"world.route_cache_hit_share":  share(hits, hits+misses),
		"artifact.checkpoint_ms":       median(s["artifact.checkpoint_ms"]),
		"artifact.checkpoint_bytes":    median(s["artifact.checkpoint_bytes"]),
		"artifact.resume_read_ms":      median(s["artifact.resume_read_ms"]),
		"runtime.alloc_bytes_per_seed": share(m.allocBytes, m.allocOps),
	}
}
