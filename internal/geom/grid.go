package geom

import (
	"cmp"
	"math"
	"slices"
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
// The index is one slice of (cell, handle) sites: CandidatePairs sorts
// it by cell and walks the neighbour cells' runs in that order, so a
// cycle costs a sort of the sites plus the pairs, with no hashing,
// however many distinct cells earlier cycles touched.
//
// The zero value is not usable; construct with NewGrid.
type Grid struct {
	cell  float64
	sites []site
}

type gridKey struct{ x, y int }

// site is one inserted handle and the cell holding it.
type site struct {
	key    gridKey
	handle int
}

func cmpKey(a, b gridKey) int {
	if a.x != b.x {
		return cmp.Compare(a.x, b.x)
	}
	return cmp.Compare(a.y, b.y)
}

// CellOf returns the key of the cell of the given size holding p,
// floor(coordinate/size) on each axis. Grid keys its cells with it,
// so a caller that must agree with a Grid's cell adjacency uses it
// too.
func CellOf(p Vec2, size float64) (x, y int) {
	return int(math.Floor(p.X / size)), int(math.Floor(p.Y / size))
}

// NewGrid returns an empty grid with the given cell size. The cell
// size must be positive; it is the distance below which a pair of
// sites is guaranteed to be reported as a candidate.
func NewGrid(cellSize float64) *Grid {
	g := &Grid{}
	g.Reset(cellSize)
	return g
}

// Reset empties the grid and sets a new cell size, keeping the site
// storage for reuse. A non-positive cell size is clamped to a minimal
// positive one so Insert never degenerates.
func (g *Grid) Reset(cellSize float64) {
	if cellSize <= 0 {
		cellSize = math.SmallestNonzeroFloat64
	}
	g.cell = cellSize
	g.sites = g.sites[:0]
}

// CellSize returns the current cell size.
func (g *Grid) CellSize() float64 { return g.cell }

// Insert adds a site with the given handle at p. Handles are opaque
// to the grid; inserting the same handle twice indexes it twice.
func (g *Grid) Insert(handle int, p Vec2) {
	x, y := CellOf(p, g.cell)
	g.sites = append(g.sites, site{gridKey{x, y}, handle})
}

// CandidatePairs appends to buf every candidate pair (a, b) with
// a < b, sorted lexicographically, and returns the extended slice.
// Each pair appears exactly once. Completeness guarantee: any two
// sites within CellSize of each other form a candidate; pairs further
// apart than 2*sqrt(2)*CellSize never do.
//
// Each cell owns its intra-cell pairs and the pairs against its
// forward half-neighbourhood — (x, y+1) and (x+1, y-1..y+1) — which
// visits every adjacent cell pair exactly once across the grid. In
// the sites sorted by cell, (x, y+1) is the run right after (x, y)
// when it exists, and the three cells of column x+1 are one
// contiguous stretch. That stretch's start only moves forward as the
// cells ascend, so one cursor finds every cell's stretch in a single
// merge-like pass over the sorted sites.
func (g *Grid) CandidatePairs(buf [][2]int) [][2]int {
	start := len(buf)
	sites := g.sites
	slices.SortFunc(sites, func(a, b site) int { return cmpKey(a.key, b.key) })
	col := 0 // start of the (x+1, y-1..y+1) stretch; only moves forward
	for lo := 0; lo < len(sites); {
		k := sites[lo].key
		hi := lo + 1
		for hi < len(sites) && sites[hi].key == k {
			hi++
		}
		run := sites[lo:hi]
		for i := range run {
			for j := i + 1; j < len(run); j++ {
				buf = append(buf, orderPair(run[i].handle, run[j].handle))
			}
		}
		up := gridKey{k.x, k.y + 1}
		for n := hi; n < len(sites) && sites[n].key == up; n++ {
			buf = appendRunPairs(buf, run, sites[n].handle)
		}
		// A non-finite coordinate can land in row math.MinInt, where y-1
		// wraps: start that column stretch at row y instead.
		from := gridKey{k.x + 1, min(k.y-1, k.y)}
		for col < len(sites) && cmpKey(sites[col].key, from) < 0 {
			col++
		}
		for n := col; n < len(sites) && sites[n].key.x == k.x+1 && sites[n].key.y <= k.y+1; n++ {
			buf = appendRunPairs(buf, run, sites[n].handle)
		}
		lo = hi
	}
	sortPairs(buf[start:])
	return buf
}

// appendRunPairs appends the pairs of every site of run with handle b.
func appendRunPairs(buf [][2]int, run []site, b int) [][2]int {
	for _, a := range run {
		buf = append(buf, orderPair(a.handle, b))
	}
	return buf
}

// sortPairs orders pairs lexicographically. slices.SortFunc rather
// than sort.Slice: the reflect-based swapper of the latter allocates
// on every call, and this sort runs once per tick on the proximity
// hot path.
func sortPairs(pairs [][2]int) { slices.SortFunc(pairs, ComparePairs) }

// ComparePairs orders pairs lexicographically — the order of
// CandidatePairs' output, so callers can binary-search it.
func ComparePairs(a, b [2]int) int {
	if a[0] != b[0] {
		return cmp.Compare(a[0], b[0])
	}
	return cmp.Compare(a[1], b[1])
}

func orderPair(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}
