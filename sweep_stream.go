package coopmrm

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"coopmrm/internal/artifact"
	"coopmrm/internal/runner"
)

// Streaming seed-sweep campaigns: the 10⁵–10⁶-run Monte Carlo path.
//
// SweepSeeds retains every per-seed Table before aggregating, so its
// memory is O(seeds) and a million-run campaign is impossible. The
// streaming path folds each per-seed table into per-cell Welford
// accumulators as jobs complete, keeping memory O(rows × cols)
// regardless of seed count, and periodically checkpoints the
// accumulator state (campaign/v1) so an interrupted campaign resumes
// from the last checkpoint instead of restarting.
//
// Determinism: per-seed jobs complete in arbitrary order under a
// parallel pool, but floating-point accumulation is order-sensitive —
// so results are buffered briefly and folded strictly in seed order
// (the buffer holds only completed-but-out-of-order tables, in
// practice bounded by the worker count). A resumed campaign replays
// the exact fold sequence of an uninterrupted one from the serialized
// state, which is why the final table is byte-identical — proven by
// the kill-and-resume differential test.

const (
	// distinctCap bounds the per-cell distinct-string set that backs
	// the "varies(n)" rendering of divergent non-numeric cells. Without
	// a cap a noisy text cell would grow the set O(seeds); real
	// divergent cells are small categorical domains (yes/no, mode
	// names), so 64 is generous. A cell that overflows renders
	// "varies(64+)".
	distinctCap = 64

	// ciZ is the normal 95% critical value used for the CI half-width
	// annotation on aggregated cells. At campaign scale (n in the
	// thousands) the normal and t quantiles are indistinguishable.
	ciZ = 1.96

	// streamRunsCaptureCap caps per-run artifact capture under
	// streaming: recording every run's events/metrics would be
	// O(seeds), exactly the retention the streaming path removes, so
	// only the first few seeds of a campaign record bundles.
	streamRunsCaptureCap = 8
)

// cellAccum is one cell's streaming aggregation state: enough to
// render exactly what AggregateSeedTables would, without the cells.
type cellAccum struct {
	n        int64
	first    string
	allSame  bool
	numeric  bool    // every value so far parsed as a finite float
	allPct   bool    // every value so far carried the % suffix
	mean, m2 float64 // Welford running moments (valid while numeric)
	distinct map[string]struct{}
	overflow bool // distinctCap was hit
}

func newCellAccum() *cellAccum {
	return &cellAccum{distinct: make(map[string]struct{})}
}

// newBackfilledCell returns an accumulator that has already absorbed k
// empty cells — the closed form of k add("") calls, used when a later
// table grows the grid (earlier tables implicitly contributed "" at
// the new positions, exactly as Table.Cell reports missing cells).
func newBackfilledCell(k int64) *cellAccum {
	c := newCellAccum()
	if k > 0 {
		c.n = k
		c.first = ""
		c.allSame = true
		c.numeric = false
		c.allPct = false
		c.distinct[""] = struct{}{}
	}
	return c
}

// add folds one cell value. The transition rules mirror aggregateCell:
// identical-so-far cells stay verbatim, one non-finite or unparseable
// value makes the cell non-numeric forever, one %-less value drops the
// unit.
func (c *cellAccum) add(s string) {
	c.n++
	if c.n == 1 {
		c.first = s
		c.allSame = true
		c.numeric = true
		c.allPct = true
	} else if s != c.first {
		c.allSame = false
	}
	if _, ok := c.distinct[s]; !ok {
		if len(c.distinct) < distinctCap {
			c.distinct[s] = struct{}{}
		} else {
			c.overflow = true
		}
	}
	trimmed := strings.TrimSpace(s)
	stripped := strings.TrimSuffix(trimmed, "%")
	if stripped == trimmed {
		c.allPct = false
	}
	if !c.numeric {
		return
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(stripped), 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		c.numeric = false
		return
	}
	d := v - c.mean
	c.mean += d / float64(c.n)
	c.m2 += d * (v - c.mean)
}

// sd returns the Bessel-corrected sample standard deviation.
func (c *cellAccum) sd() float64 {
	if c.n < 2 {
		return 0
	}
	return math.Sqrt(math.Max(c.m2, 0) / float64(c.n-1))
}

// render formats the aggregate: verbatim for identical cells,
// "mean±sd[%] [n=…, ci=…]" (ci = 95% half-width of the mean) for
// numeric cells, "varies(d)" otherwise.
func (c *cellAccum) render() string {
	if c.n == 0 {
		return ""
	}
	if c.allSame {
		return c.first
	}
	if c.numeric {
		sd := c.sd()
		ci := ciZ * sd / math.Sqrt(float64(c.n))
		unit := ""
		if c.allPct {
			unit = "%"
		}
		return fmt.Sprintf("%.2f±%.2f%s [n=%d, ci=%.2f]", c.mean, sd, unit, c.n, ci)
	}
	if c.overflow {
		return fmt.Sprintf("varies(%d+)", distinctCap)
	}
	return fmt.Sprintf("varies(%d)", len(c.distinct))
}

func (c *cellAccum) toWire() artifact.CampaignCell {
	w := artifact.CampaignCell{
		N:        c.n,
		First:    c.first,
		AllSame:  c.allSame,
		Numeric:  c.numeric,
		AllPct:   c.allPct,
		Mean:     c.mean,
		M2:       c.m2,
		Overflow: c.overflow,
	}
	w.Distinct = make([]string, 0, len(c.distinct))
	for s := range c.distinct {
		w.Distinct = append(w.Distinct, s)
	}
	sort.Strings(w.Distinct)
	return w
}

func cellFromWire(w artifact.CampaignCell) *cellAccum {
	c := &cellAccum{
		n:        w.N,
		first:    w.First,
		allSame:  w.AllSame,
		numeric:  w.Numeric,
		allPct:   w.AllPct,
		mean:     w.Mean,
		m2:       w.M2,
		overflow: w.Overflow,
		distinct: make(map[string]struct{}, len(w.Distinct)),
	}
	for _, s := range w.Distinct {
		c.distinct[s] = struct{}{}
	}
	return c
}

// campaignState is the whole-campaign fold state: table metadata from
// the first folded table plus the (possibly ragged, growing) cell
// accumulator grid.
type campaignState struct {
	id, title, paper, note string
	header                 []string
	folded                 int
	cells                  [][]*cellAccum
}

// fold absorbs one per-seed table. Must be called in seed order.
func (st *campaignState) fold(t Table) {
	if st.folded == 0 && st.id == "" {
		st.id, st.title, st.paper, st.note = t.ID, t.Title, t.Paper, t.Note
		st.header = t.Header
	}
	rows := len(st.cells)
	if len(t.Rows) > rows {
		rows = len(t.Rows)
	}
	for r := 0; r < rows; r++ {
		if r >= len(st.cells) {
			st.cells = append(st.cells, nil)
		}
		cols := len(st.cells[r])
		if r < len(t.Rows) && len(t.Rows[r]) > cols {
			cols = len(t.Rows[r])
		}
		for c := len(st.cells[r]); c < cols; c++ {
			st.cells[r] = append(st.cells[r], newBackfilledCell(int64(st.folded)))
		}
		for c := 0; c < cols; c++ {
			st.cells[r][c].add(t.Cell(r, c))
		}
	}
	st.folded++
}

// render produces the aggregated campaign table.
func (st *campaignState) render(seeds []int64) Table {
	out := Table{
		ID:     st.id,
		Title:  st.title,
		Paper:  st.paper,
		Header: st.header,
		Note: strings.TrimSpace(fmt.Sprintf(
			"aggregated over %d seeds (%s): numeric cells are mean±sd [n, 95%% CI half-width]. %s",
			len(seeds), seedSpan(seeds), st.note)),
	}
	for _, row := range st.cells {
		cells := make([]string, len(row))
		for i, c := range row {
			cells[i] = c.render()
		}
		out.Rows = append(out.Rows, cells)
	}
	return out
}

func (st *campaignState) toCampaign(e Experiment, opt Options, seeds []int64) artifact.Campaign {
	c := artifact.Campaign{
		Schema:     artifact.SchemaCampaign,
		Experiment: e.ID,
		Quick:      opt.Quick,
		Seeds:      seeds,
		Completed:  st.folded,
		Title:      st.title,
		Paper:      st.paper,
		Note:       st.note,
		Header:     st.header,
	}
	c.Cells = make([][]artifact.CampaignCell, len(st.cells))
	for r, row := range st.cells {
		c.Cells[r] = make([]artifact.CampaignCell, len(row))
		for i, cell := range row {
			c.Cells[r][i] = cell.toWire()
		}
	}
	return c
}

func stateFromCampaign(c artifact.Campaign) *campaignState {
	st := &campaignState{
		id:     c.Experiment,
		title:  c.Title,
		paper:  c.Paper,
		note:   c.Note,
		header: c.Header,
		folded: c.Completed,
	}
	st.cells = make([][]*cellAccum, len(c.Cells))
	for r, row := range c.Cells {
		st.cells[r] = make([]*cellAccum, len(row))
		for i, w := range row {
			st.cells[r][i] = cellFromWire(w)
		}
	}
	return st
}

// ErrCampaignDrain, returned (or wrapped) by a CampaignConfig.OnFold
// hook, aborts a streaming campaign *gracefully*: the fold stops, and
// — unlike any other abort, which leaves only the last periodic
// checkpoint exactly as a SIGKILL would — the campaign writes a final
// checkpoint of every seed folded so far before unwinding. This is
// the substrate of coopmrmd's SIGTERM drain: an in-flight campaign
// parks with zero folded work lost and resumes from that checkpoint
// on the next start.
var ErrCampaignDrain = errors.New("campaign drain requested")

// CampaignConfig tunes a streaming seed-sweep campaign.
type CampaignConfig struct {
	// Checkpoint, when non-empty, is the campaign/v1 checkpoint file:
	// written atomically every Every folded seeds and once at
	// completion. Empty disables checkpointing.
	Checkpoint string
	// Every is the number of folded seeds between checkpoint writes;
	// <= 0 defaults to 1000.
	Every int
	// Resume loads Checkpoint (when the file exists) and continues
	// from its completed prefix instead of starting over. The
	// checkpoint must match the experiment, options and seed list.
	Resume bool
	// OnFold, when non-nil, runs after each seed is folded (and after
	// any due checkpoint write) with the completed and total seed
	// counts. Returning an error aborts the campaign — the testing
	// hook behind kill-and-resume differential tests and progress
	// reporting.
	OnFold func(done, total int) error
}

// streamJob is one per-seed job's payload crossing the pool boundary.
type streamJob struct {
	table   Table
	runs    []artifact.Run
	details []artifact.BenchDetail
	wall    time.Duration
}

// streamCapture aggregates the observability side-channel of a
// streaming sweep: capped run artifacts (merged in seed order) and
// per-seed wall statistics for the variance-aware bench gate. Wall
// stats cover only seeds run in this process — they are measurements,
// not campaign state, and never enter a checkpoint.
type streamCapture struct {
	runs             []artifact.Run
	details          []artifact.BenchDetail
	wall             time.Duration
	wallN            int64
	wallMean, wallM2 float64 // Welford over per-seed wall seconds
}

// wallSd returns the Bessel-corrected sample sd of the per-seed walls.
func (sc *streamCapture) wallSd() time.Duration {
	if sc.wallN < 2 {
		return 0
	}
	sd := math.Sqrt(math.Max(sc.wallM2, 0) / float64(sc.wallN-1))
	return time.Duration(sd * float64(time.Second))
}

// SweepSeedsStream is the streaming counterpart of SweepSeeds: it runs
// e once per seed across at most parallel workers and folds each
// per-seed table into per-cell Welford accumulators the moment it can
// be folded in seed order, so memory stays O(rows × cols) — not
// O(seeds) — and aggregated numeric cells render as
// "mean±sd [n=…, ci=…]" with Bessel-corrected sd and the 95% CI
// half-width of the mean. With cfg.Checkpoint set the campaign
// checkpoints periodically and, with cfg.Resume, continues from the
// last checkpoint; a resumed campaign's table is byte-identical to an
// uninterrupted run over the same seeds.
func SweepSeedsStream(e Experiment, opt Options, seeds []int64, parallel int, cfg CampaignConfig) (Table, error) {
	table, _, err := sweepSeedsStream(e, opt, seeds, parallel, cfg, false)
	return table, err
}

func sweepSeedsStream(e Experiment, opt Options, seeds []int64, parallel int,
	cfg CampaignConfig, capture bool) (Table, *streamCapture, error) {
	if len(seeds) == 0 {
		return Table{}, nil, fmt.Errorf("streaming sweep: no seeds")
	}
	every := cfg.Every
	if every <= 0 {
		every = 1000
	}

	st := &campaignState{}
	if cfg.Resume && cfg.Checkpoint != "" {
		c, err := artifact.ReadCampaign(cfg.Checkpoint)
		switch {
		case err == nil:
			if err := validateCampaign(c, e, opt, seeds); err != nil {
				return Table{}, nil, err
			}
			st = stateFromCampaign(c)
		case os.IsNotExist(err):
			// No checkpoint yet: a fresh campaign, not an error — the
			// operational meaning of -resume is "continue if possible".
		default:
			return Table{}, nil, err
		}
	}
	start := st.folded
	total := len(seeds)

	scap := &streamCapture{}
	next := start
	pending := make(map[int]streamJob)
	checkpoint := func() error {
		if cfg.Checkpoint == "" {
			return nil
		}
		return artifact.WriteCampaign(cfg.Checkpoint, st.toCampaign(e, opt, seeds))
	}

	onResult := func(j int, job streamJob) error {
		idx := start + j
		scap.wall += job.wall
		scap.wallN++
		d := job.wall.Seconds() - scap.wallMean
		scap.wallMean += d / float64(scap.wallN)
		scap.wallM2 += d * (job.wall.Seconds() - scap.wallMean)
		pending[idx] = job
		for {
			jb, ok := pending[next]
			if !ok {
				return nil
			}
			delete(pending, next)
			st.fold(jb.table)
			scap.runs = append(scap.runs, jb.runs...)
			scap.details = append(scap.details, jb.details...)
			next++
			if st.folded%every == 0 && st.folded < total {
				if err := checkpoint(); err != nil {
					return err
				}
			}
			if cfg.OnFold != nil {
				if err := cfg.OnFold(st.folded, total); err != nil {
					return err
				}
			}
		}
	}

	err := runner.MapStream(context.Background(), parallel, total-start,
		func(_ context.Context, j int) (streamJob, error) {
			idx := start + j
			jobOpt := opt.WithSeed(seeds[idx])
			if capture && idx < streamRunsCaptureCap {
				jobOpt.Artifacts = artifact.NewRecorder()
			}
			t0 := time.Now()
			table := e.Run(jobOpt)
			job := streamJob{table: table, wall: time.Since(t0)}
			if jobOpt.Artifacts != nil {
				prefix := "seed=" + strconv.FormatInt(seeds[idx], 10) + "/"
				for _, run := range jobOpt.Artifacts.Runs() {
					run.Name = prefix + run.Name
					job.runs = append(job.runs, run)
				}
				for _, d := range jobOpt.Artifacts.Details() {
					d.ID = prefix + d.ID
					job.details = append(job.details, d)
				}
			}
			return job, nil
		}, onResult)
	if err != nil {
		// A graceful drain owns a consistent folded prefix (folds are
		// serialized on this goroutine and the pool has drained) —
		// checkpoint it so the abort loses nothing. Every other abort
		// keeps SIGKILL semantics: only periodic checkpoints survive.
		if cfg.Checkpoint != "" && errors.Is(err, ErrCampaignDrain) {
			if cerr := checkpoint(); cerr != nil {
				err = errors.Join(err, cerr)
			}
		}
		return Table{}, nil, err
	}
	if st.folded != total {
		return Table{}, nil, fmt.Errorf("streaming sweep: folded %d of %d seeds", st.folded, total)
	}
	if err := checkpoint(); err != nil {
		return Table{}, nil, err
	}
	return st.render(seeds), scap, nil
}

// validateCampaign checks that a loaded checkpoint belongs to this
// exact campaign: same experiment, same options, same seed plan. A
// mismatch would silently merge incompatible statistics.
func validateCampaign(c artifact.Campaign, e Experiment, opt Options, seeds []int64) error {
	if c.Experiment != e.ID {
		return fmt.Errorf("checkpoint is for experiment %s, campaign runs %s", c.Experiment, e.ID)
	}
	if c.Quick != opt.Quick {
		return fmt.Errorf("checkpoint quick=%v, campaign quick=%v", c.Quick, opt.Quick)
	}
	if len(c.Seeds) != len(seeds) {
		return fmt.Errorf("checkpoint plans %d seeds, campaign plans %d", len(c.Seeds), len(seeds))
	}
	for i, s := range c.Seeds {
		if s != seeds[i] {
			return fmt.Errorf("checkpoint seed[%d]=%d, campaign seed[%d]=%d", i, s, i, seeds[i])
		}
	}
	return nil
}
