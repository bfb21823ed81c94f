package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"coopmrm/internal/server"
)

// The serve workload drives an in-process coopmrmd server (temp state
// dir, Parallel 1, default MaxJobs) on a loopback listener with a
// seeded job mix: quick E1/E6/E13 runs and a short E19 streaming
// sweep, 40% of them repeats of an earlier job that the result cache
// serves. One pass starts a fresh server, runs an open loop of
// serveOpenJobs arrivals at serveRate, then a closed loop of
// serveClosedJobs with workers clients.
const (
	serveOpenJobs   = 100
	serveClosedJobs = 100
	// serveRate is the open loop's fixed arrival rate in jobs/s, part
	// of the workload and never re-tuned: a third of the slower
	// closed-loop jobs/s measured when the benchmark was defined. At
	// half, host speed swings moved the open loop's utilization enough
	// to spread its latency across runs well beyond the bound
	// (README.md).
	serveRate = 8
	// servePoll is the status polling interval of a waiting client.
	servePoll = 2 * time.Millisecond
)

var serveWorkload = workload{
	name:        "serve",
	tailP:       95,
	latencyWhat: "open-loop job latency from due time to last artifact byte",
	pass:        servePass,
	names: map[string]issueName{
		"throughput_per_s": {"jobs_per_s", "jobs/s", 1},
		"latency_p50_ms":   {"job_p50_ms", "ms", 1},
		"latency_tail_ms":  {"job_p95_ms", "ms", 1},
	},
	layers: serveLayers,
}

// serveBlock is the composition of every 20 consecutive submissions:
// eight repeats of an earlier new job ("") and twelve new jobs, two of
// them E19 streaming sweeps. Fixing the composition per block, rather
// than drawing each job's kind, keeps the cache-hit share and the
// share of long jobs the same for every seed. The shares place both
// reported percentiles inside one population rather than on the edge
// between two: the median among the cold E1/E13 runs (the 40% of
// repeats sit below it), the 95th percentile among the cold E19
// sweeps (the slowest 10%).
var serveBlock = []string{
	"E1", "E1", "E1", "E1", "E6", "E6", "E13", "E13", "E13", "E13", "E19", "E19",
	"", "", "", "", "", "", "", "",
}

// serveJobs is the pass's submission sequence: blocks of serveBlock
// in a seeded order, new jobs at seeds no other new job of the pass
// uses, repeats drawn uniformly from the new jobs before them. E1, E6
// and E13 are single quick runs; E19 is a two-seed quick streaming
// sweep.
func serveJobs(seed int64, n int) []jobRequest {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5e7e))
	var fresh, out []jobRequest
	block := make([]string, len(serveBlock))
	for len(out) < n {
		copy(block, serveBlock)
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		if len(fresh) == 0 && block[0] == "" {
			// The first submission has nothing to repeat.
			k := 0
			for block[k] == "" {
				k++
			}
			block[0], block[k] = block[k], block[0]
		}
		for _, kind := range block {
			if len(out) == n {
				break
			}
			if kind == "" {
				out = append(out, fresh[rng.IntN(len(fresh))])
				continue
			}
			js := seed*10000 + int64(len(fresh)) + 1
			req := jobRequest{Experiment: kind, Options: jobOptions{Seed: js, Quick: true}}
			if kind == "E19" {
				req.Seeds = []int64{js, js + 1}
			}
			fresh = append(fresh, req)
			out = append(out, req)
		}
	}
	return out
}

// jobRequest is the wire form of POST /v1/jobs the benchmark sends.
type jobRequest struct {
	Experiment string     `json:"experiment"`
	Options    jobOptions `json:"options"`
	Seeds      []int64    `json:"seeds,omitempty"`
}

type jobOptions struct {
	Seed  int64 `json:"seed"`
	Quick bool  `json:"quick"`
}

// jobResult is one submission's outcome.
type jobResult struct {
	id     string
	tarSHA string
	size   int64
	err    error
}

var servePassIDs atomic.Int64

func servePass(dir string, seed int64, tr *tracer) (*pass, error) {
	jobs := serveJobs(seed, serveOpenJobs+serveClosedJobs)
	p := &pass{attempted: len(jobs)}
	passID := servePassIDs.Add(1) << 20

	t0 := time.Now()
	dir, err := os.MkdirTemp(dir, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	srv, err := server.New(server.Config{StateDir: dir, Parallel: 1})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	transport := &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers}
	c := &serveClient{base: "http://" + ln.Addr().String(), hc: &http.Client{Transport: transport, Timeout: time.Minute}, tr: tr}
	if tr != nil {
		c.observe = func(name string, d time.Duration) {
			c.mu.Lock()
			p.sample(name+"_ms", ms(d))
			c.mu.Unlock()
		}
	}
	defer func() {
		// Every job has finished by now; a slow shutdown is reported but
		// does not change the pass's result.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: serve shutdown: %v\n", err)
		}
		<-served
		if !srv.WaitJobs(30 * time.Second) {
			fmt.Fprintln(os.Stderr, "perfbench: serve: jobs still running at shutdown")
		}
		transport.CloseIdleConnections()
	}()
	if _, err := c.get("/v1/experiments", io.Discard); err != nil {
		return nil, err
	}
	p.setup = time.Since(t0)
	before, err := c.metrics()
	if err != nil {
		return nil, err
	}

	results := make([]jobResult, len(jobs))
	late := openLoop(serveOpenJobs, time.Now(), time.Second/serveRate, sleepUntil,
		func(i int, due time.Time) {
			results[i] = c.do(jobs[i], passID+int64(i))
			d := time.Since(due)
			c.mu.Lock()
			p.lat = append(p.lat, ms(d))
			c.mu.Unlock()
		})

	cStart := time.Now()
	var next atomic.Int64
	next.Store(serveOpenJobs)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(jobs); i = int(next.Add(1) - 1) {
				results[i] = c.do(jobs[i], passID+int64(i))
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(cStart)
	p.ops = serveClosedJobs
	p.allocOps = float64(len(jobs))

	after, err := c.metrics()
	if err != nil {
		return nil, err
	}
	if tr != nil {
		for _, l := range late {
			p.sample("serve.generator_late_ms", ms(l))
		}
		for _, r := range results {
			p.sample("artifact.tar_bytes", float64(r.size))
		}
		p.sample("server.hits", float64(after.Cache.Hits-before.Cache.Hits))
		p.sample("server.misses", float64(after.Cache.Misses-before.Cache.Misses))
		p.sample("server.coalesced", float64(after.Cache.Coalesced-before.Cache.Coalesced))
		p.sample("server.evictions", float64(after.Cache.Evictions-before.Cache.Evictions))
		p.sample("server.executions", float64(after.Throughput.Executions-before.Throughput.Executions))
		p.sample("server.runs", float64(after.Throughput.RunsCompleted-before.Throughput.RunsCompleted))
	}

	// Every fetch of one job, cold or cached, must return the same
	// bytes; the pass digest covers every job in submission order.
	h := sha256.New()
	first := make(map[string]string)
	for i, r := range results {
		if r.err != nil {
			if p.failed < 3 {
				fmt.Fprintf(os.Stderr, "perfbench: serve job %d: %v\n", i, r.err)
			}
			p.failed++
			continue
		}
		if sha, ok := first[r.id]; ok && sha != r.tarSHA {
			p.failed++
		} else if !ok {
			first[r.id] = r.tarSHA
		}
		fmt.Fprintf(h, "%s %s\n", r.id, r.tarSHA)
	}
	p.digest = hex.EncodeToString(h.Sum(nil))
	return p, nil
}

// openLoop starts send(i, due) on its own goroutine at due = start +
// i·interval for every i < n, whether or not earlier sends have
// returned, and waits for all of them. sleepUntil blocks until the
// given time and returns the time it actually woke. The returned
// slice holds how late each send started; a send measures its
// latency from due, so a stalled generator's delay counts against
// every request it held back.
func openLoop(n int, start time.Time, interval time.Duration,
	sleepUntil func(time.Time) time.Time, send func(i int, due time.Time)) []time.Duration {
	late := make([]time.Duration, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		late[i] = sleepUntil(due).Sub(due)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			send(i, due)
		}(i)
	}
	wg.Wait()
	return late
}

func sleepUntil(t time.Time) time.Time {
	time.Sleep(time.Until(t))
	return time.Now()
}

// serveClient is one benchmark client of the job API; its transport
// caps it at workers connections.
type serveClient struct {
	base string
	hc   *http.Client
	tr   *tracer
	// observe, when set, receives each API call's duration; mu also
	// guards the pass the callbacks write to.
	observe func(name string, d time.Duration)
	mu      sync.Mutex
}

// span records an API call as a span under the job and observes it.
func (c *serveClient) span(parent, trace int64, name string, start time.Time) {
	end := time.Now()
	c.tr.add(parent, trace, name, start, end)
	if c.observe != nil {
		c.observe(name, end.Sub(start))
	}
}

// jobStatus is the part of the server's jobstatus/v1 document the
// client reads.
type jobStatus struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Error  string `json:"error"`
}

// do submits one job, polls until it is done and fetches its tar.
func (c *serveClient) do(req jobRequest, trace int64) jobResult {
	start := time.Now()
	jobID := c.tr.id()
	defer func() { c.tr.record(jobID, 0, trace, "serve.job", start, time.Now()) }()

	body, err := json.Marshal(req)
	if err != nil {
		return jobResult{err: err}
	}
	t0 := time.Now()
	resp, err := c.hc.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return jobResult{err: err}
	}
	var st jobStatus
	err = decodeStatus(resp, &st)
	c.span(jobID, trace, "server.submit", t0)
	if err != nil {
		return jobResult{err: err}
	}
	for st.Status != "done" {
		if st.Status == "failed" || st.Status == "interrupted" {
			return jobResult{id: st.ID, err: fmt.Errorf("job %s %s: %s", st.ID, st.Status, st.Error)}
		}
		time.Sleep(servePoll)
		t := time.Now()
		resp, err := c.hc.Get(c.base + "/v1/jobs/" + st.ID)
		if err != nil {
			return jobResult{id: st.ID, err: err}
		}
		err = decodeStatus(resp, &st)
		c.span(jobID, trace, "server.status", t)
		if err != nil {
			return jobResult{id: st.ID, err: err}
		}
	}
	h := sha256.New()
	t1 := time.Now()
	n, err := c.get("/v1/jobs/"+st.ID+"/artifact", h)
	c.span(jobID, trace, "server.artifact", t1)
	if err != nil {
		return jobResult{id: st.ID, err: err}
	}
	return jobResult{id: st.ID, tarSHA: hex.EncodeToString(h.Sum(nil)), size: n}
}

func decodeStatus(resp *http.Response, st *jobStatus) error {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(st)
}

// get fetches path into w and returns the body size.
func (c *serveClient) get(path string, w io.Writer) (int64, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return io.Copy(w, resp.Body)
}

// serveMetrics is the part of the servemetrics/v1 document the
// benchmark reads.
type serveMetrics struct {
	Cache struct {
		Hits, Misses, Coalesced, Evictions int64
	} `json:"cache"`
	Throughput struct {
		Executions    int64 `json:"executions"`
		RunsCompleted int64 `json:"runs_completed"`
	} `json:"throughput"`
}

func (c *serveClient) metrics() (serveMetrics, error) {
	var buf bytes.Buffer
	var m serveMetrics
	if _, err := c.get("/v1/metrics", &buf); err != nil {
		return m, err
	}
	return m, json.Unmarshal(buf.Bytes(), &m)
}

func serveLayers(m *measurement) map[string]float64 {
	s := m.samples
	hits, misses := sum(s["server.hits"]), sum(s["server.misses"])
	coalesced := sum(s["server.coalesced"])
	return map[string]float64{
		"server.submit_ms_p50":        median(s["server.submit_ms"]),
		"server.status_ms_p50":        median(s["server.status_ms"]),
		"server.artifact_ms_p50":      median(s["server.artifact_ms"]),
		"server.cache_hit_share":      share(hits, hits+misses+coalesced),
		"server.coalesced_share":      share(coalesced, hits+misses+coalesced),
		"server.coalesced":            coalesced,
		"server.evictions":            sum(s["server.evictions"]),
		"server.runs_per_job":         share(sum(s["server.runs"]), sum(s["server.executions"])),
		"serve.generator_late_ms_p95": percentile(s["serve.generator_late_ms"], 95),
		"artifact.tar_bytes_p50":      median(s["artifact.tar_bytes"]),
		"runtime.alloc_bytes_per_job": share(m.allocBytes, m.allocOps),
	}
}
