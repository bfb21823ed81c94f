package geom

import (
	"math"
	"slices"
	"sync"
)

// Grid is a uniform-cell broad-phase index over indexed point sites.
// Callers insert sites (an integer handle plus a position), then ask
// for candidate pairs: every unordered pair whose sites lie closer
// than the cell size is guaranteed to be enumerated, at the price of
// some farther pairs (up to one full cell diagonal beyond) also
// appearing. The typical cycle is Reset, Insert xN, CandidatePairs —
// a Grid reuses its internal allocations across cycles, so a per-tick
// caller amortises to near-zero garbage.
//
// The zero value is not usable; construct with NewGrid.
type Grid struct {
	cell  float64
	cells map[gridKey][]int
	// occupied lists the cells holding sites this cycle, in first-insert
	// order, so Reset and the pair passes cost O(occupied cells) however
	// many cells earlier cycles touched. spare keeps the buckets of the
	// cells Reset dropped, for reuse by the next cycle's cells.
	occupied []gridKey
	spare    [][]int

	// workerBufs are the per-worker pair buffers of
	// CandidatePairsParallel, kept so a per-tick caller amortises the
	// fan-out to zero allocations like the sequential path.
	workerBufs [][][2]int
}

type gridKey struct{ x, y int }

// cellHash folds a cell key into a stable non-negative bucket id. The
// multipliers are the classic 2-D spatial-hash primes; the result
// depends only on the cell coordinates (no map iteration order, no
// pointer identity), so shard assignment and cell ownership are
// deterministic across runs and platforms.
func cellHash(k gridKey) uint32 {
	return uint32(k.x)*2654435761 ^ uint32(k.y)*2246822519
}

// ShardOf assigns a point to one of shards spatial shards by hashing
// the grid cell (of the given cell size) that contains it. Points in
// the same cell always share a shard; a moving entity migrates to a
// new shard exactly when it crosses a cell boundary. The assignment
// is deterministic and balance comes from the hash, so callers can
// re-evaluate it every tick without any cross-tick state.
func ShardOf(p Vec2, cellSize float64, shards int) int {
	if shards <= 1 {
		return 0
	}
	if cellSize <= 0 {
		cellSize = math.SmallestNonzeroFloat64
	}
	x, y := CellOf(p, cellSize)
	return int(cellHash(gridKey{x, y}) % uint32(shards))
}

// CellOf returns the key of the cell of the given size holding p,
// floor(coordinate/size) on each axis. Grid and ShardOf key cells with
// it, so a caller that must agree with a Grid's cell adjacency uses it
// too.
func CellOf(p Vec2, size float64) (x, y int) {
	return int(math.Floor(p.X / size)), int(math.Floor(p.Y / size))
}

// NewGrid returns an empty grid with the given cell size. The cell
// size must be positive; it is the distance below which a pair of
// sites is guaranteed to be reported as a candidate.
func NewGrid(cellSize float64) *Grid {
	g := &Grid{cells: make(map[gridKey][]int)}
	g.Reset(cellSize)
	return g
}

// Reset empties the grid and sets a new cell size, keeping the bucket
// allocations for reuse. It visits only the cells occupied since the
// last Reset, and drops them from the index, so a site cloud drifting
// across the plane does not leave a trail of empty cells behind. A
// non-positive cell size is clamped to a minimal positive one so
// Insert never degenerates.
func (g *Grid) Reset(cellSize float64) {
	if cellSize <= 0 {
		cellSize = math.SmallestNonzeroFloat64
	}
	g.cell = cellSize
	for _, k := range g.occupied {
		g.spare = append(g.spare, g.cells[k][:0])
		delete(g.cells, k)
	}
	g.occupied = g.occupied[:0]
}

// CellSize returns the current cell size.
func (g *Grid) CellSize() float64 { return g.cell }

// Insert adds a site with the given handle at p. Handles are opaque
// to the grid; inserting the same handle twice indexes it twice.
func (g *Grid) Insert(handle int, p Vec2) {
	x, y := CellOf(p, g.cell)
	k := gridKey{x, y}
	bucket, ok := g.cells[k]
	if !ok {
		g.occupied = append(g.occupied, k)
		if n := len(g.spare); n > 0 {
			bucket, g.spare = g.spare[n-1], g.spare[:n-1]
		}
	}
	g.cells[k] = append(bucket, handle)
}

// CandidatePairs appends to buf every candidate pair (a, b) with
// a < b, sorted lexicographically, and returns the extended slice.
// Each pair appears exactly once. Completeness guarantee: any two
// sites within CellSize of each other form a candidate; pairs further
// apart than 2*sqrt(2)*CellSize never do.
func (g *Grid) CandidatePairs(buf [][2]int) [][2]int {
	start := len(buf)
	for _, k := range g.occupied {
		buf = g.appendCellPairs(buf, k, g.cells[k])
	}
	sortPairs(buf[start:])
	return buf
}

// CandidatePairsParallel is CandidatePairs fanned across workers: each
// worker enumerates the pairs of the cells it owns (ownership by cell
// hash, so every cell is visited exactly once), reading neighbouring
// buckets read-only for the boundary pairs, and the per-worker buffers
// are concatenated and sorted with the sequential comparator. The
// enumerated multiset is identical to the sequential pass whatever the
// worker count, so after the global sort the returned slice is
// byte-identical to CandidatePairs — the broad-phase arm of the shard
// determinism guarantee.
func (g *Grid) CandidatePairsParallel(buf [][2]int, workers int) [][2]int {
	if workers <= 1 || len(g.occupied) < 2*workers {
		return g.CandidatePairs(buf)
	}
	for len(g.workerBufs) < workers {
		g.workerBufs = append(g.workerBufs, nil)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := g.workerBufs[w][:0]
			for _, k := range g.occupied {
				if int(cellHash(k)%uint32(workers)) == w {
					out = g.appendCellPairs(out, k, g.cells[k])
				}
			}
			g.workerBufs[w] = out
		}(w)
	}
	wg.Wait()
	start := len(buf)
	for w := 0; w < workers; w++ {
		buf = append(buf, g.workerBufs[w]...)
	}
	sortPairs(buf[start:])
	return buf
}

// appendCellPairs appends the candidate pairs owned by one cell: all
// intra-bucket pairs plus the pairs against the forward
// half-neighbourhood, which visits every adjacent cell pair exactly
// once across the whole grid.
func (g *Grid) appendCellPairs(buf [][2]int, k gridKey, bucket []int) [][2]int {
	offsets := [4]gridKey{{1, -1}, {1, 0}, {1, 1}, {0, 1}}
	for i := 0; i < len(bucket); i++ {
		for j := i + 1; j < len(bucket); j++ {
			buf = append(buf, orderPair(bucket[i], bucket[j]))
		}
	}
	for _, off := range offsets {
		nb := g.cells[gridKey{k.x + off.x, k.y + off.y}]
		for _, a := range bucket {
			for _, b := range nb {
				buf = append(buf, orderPair(a, b))
			}
		}
	}
	return buf
}

// sortPairs orders pairs lexicographically. slices.SortFunc rather
// than sort.Slice: the reflect-based swapper of the latter allocates
// on every call, and this sort runs once per tick on the proximity
// hot path.
func sortPairs(pairs [][2]int) {
	slices.SortFunc(pairs, func(a, b [2]int) int {
		if a[0] != b[0] {
			return a[0] - b[0]
		}
		return a[1] - b[1]
	})
}

func orderPair(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}
