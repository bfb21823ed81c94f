package geom

import (
	"math/rand"
	"slices"
	"testing"
)

func pairSet(pairs [][2]int) map[[2]int]bool {
	out := make(map[[2]int]bool, len(pairs))
	for _, p := range pairs {
		out[p] = true
	}
	return out
}

func TestGridCompleteness(t *testing.T) {
	// Any pair within the cell size must be a candidate, whatever the
	// layout; property-checked against the brute-force oracle.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		cell := 1 + 9*rng.Float64()
		g := NewGrid(cell)
		n := 2 + rng.Intn(40)
		pts := make([]Vec2, n)
		for i := range pts {
			pts[i] = V(rng.Float64()*100-50, rng.Float64()*100-50)
			g.Insert(i, pts[i])
		}
		got := pairSet(g.CandidatePairs(nil))
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				d := pts[i].Dist(pts[j])
				if d < cell && !got[[2]int{i, j}] {
					t.Fatalf("trial %d: pair (%d,%d) at %.2f < cell %.2f missed", trial, i, j, d, cell)
				}
				if d > 2*1.4143*cell && got[[2]int{i, j}] {
					t.Fatalf("trial %d: pair (%d,%d) at %.2f reported for cell %.2f", trial, i, j, d, cell)
				}
			}
		}
	}
}

func TestGridPairsSortedAndUnique(t *testing.T) {
	g := NewGrid(2)
	// A clump inside one cell plus neighbours across boundaries.
	pts := []Vec2{V(0.1, 0.1), V(0.3, 0.2), V(1.9, 0.1), V(2.1, 0.1), V(-0.1, -0.1), V(0.1, 2.05)}
	for i, p := range pts {
		g.Insert(i, p)
	}
	pairs := g.CandidatePairs(nil)
	seen := map[[2]int]bool{}
	for i, p := range pairs {
		if p[0] >= p[1] {
			t.Errorf("pair %v not ordered", p)
		}
		if seen[p] {
			t.Errorf("pair %v duplicated", p)
		}
		seen[p] = true
		if i > 0 {
			prev := pairs[i-1]
			if prev[0] > p[0] || (prev[0] == p[0] && prev[1] >= p[1]) {
				t.Errorf("pairs not sorted: %v before %v", prev, p)
			}
		}
	}
}

func TestGridResetReuses(t *testing.T) {
	g := NewGrid(1)
	g.Insert(0, V(0, 0))
	g.Insert(1, V(0.5, 0))
	if n := len(g.CandidatePairs(nil)); n != 1 {
		t.Fatalf("pairs = %d, want 1", n)
	}
	g.Reset(1)
	if n := len(g.CandidatePairs(nil)); n != 0 {
		t.Errorf("pairs after reset = %d, want 0", n)
	}
	// New cell size takes effect.
	g.Reset(10)
	if g.CellSize() != 10 {
		t.Errorf("cell size = %v", g.CellSize())
	}
	g.Insert(0, V(0, 0))
	g.Insert(1, V(8, 0))
	if n := len(g.CandidatePairs(nil)); n != 1 {
		t.Errorf("pairs = %d, want 1 at the larger cell", n)
	}
	// Degenerate cell sizes are clamped, not a crash.
	g.Reset(0)
	g.Insert(0, V(1, 1))
}

func TestGridNegativeCoordinates(t *testing.T) {
	// math.Floor (not integer truncation) must assign cells around the
	// origin: -0.5 and +0.5 are different cells at size 1.
	g := NewGrid(1)
	g.Insert(0, V(-0.5, 0.5))
	g.Insert(1, V(0.5, 0.5))
	g.Insert(2, V(-1.5, 0.5))
	got := pairSet(g.CandidatePairs(nil))
	if !got[[2]int{0, 1}] || !got[[2]int{0, 2}] {
		t.Errorf("adjacent cells across the origin missed: %v", got)
	}
}

// driftCycle fills g with a 40×40 cloud of n sites whose centre moves
// 9 units (almost two cells of 5) along the diagonal per cycle, so every
// few cycles the cloud covers cells no earlier cycle touched.
func driftCycle(g *Grid, offsets []Vec2, cycle int) {
	c := float64(cycle) * 9
	g.Reset(5)
	for i, o := range offsets {
		g.Insert(i, V(c-2000+o.X, 0.5*c-1000+o.Y))
	}
}

func driftOffsets(n int) []Vec2 {
	rng := rand.New(rand.NewSource(11))
	out := make([]Vec2, n)
	for i := range out {
		out[i] = V(rng.Float64()*40-20, rng.Float64()*40-20)
	}
	return out
}

// A reused grid must answer exactly like a freshly built one while its
// site cloud drifts across thousands of distinct cells, and must not
// keep the cells it left behind: the index holds the occupied cells
// only, so Reset and the pair passes stay O(occupied cells).
func TestGridReuseWhileDrifting(t *testing.T) {
	offsets := driftOffsets(150)
	g := NewGrid(5)
	var seq, par [][2]int
	visited := map[gridKey]bool{}
	for cycle := 0; cycle < 600; cycle++ {
		driftCycle(g, offsets, cycle)
		fresh := NewGrid(5)
		driftCycle(fresh, offsets, cycle)
		want := fresh.CandidatePairs(nil)
		seq = g.CandidatePairs(seq[:0])
		par = g.CandidatePairsParallel(par[:0], 3)
		if !slices.Equal(seq, want) || !slices.Equal(par, want) {
			t.Fatalf("cycle %d: reused grid gave %d/%d pairs, fresh grid %d",
				cycle, len(seq), len(par), len(want))
		}
		if len(g.cells) != len(g.occupied) || len(g.occupied) != len(fresh.occupied) {
			t.Fatalf("cycle %d: index holds %d cells, %d occupied (fresh %d)",
				cycle, len(g.cells), len(g.occupied), len(fresh.occupied))
		}
		for _, k := range g.occupied {
			visited[k] = true
		}
	}
	if len(visited) < 2000 {
		t.Fatalf("cloud visited only %d distinct cells", len(visited))
	}

	// Steady state: a Reset, Insert, CandidatePairs cycle on fresh
	// cells allocates nothing once the buffers have grown.
	cycle := 600
	allocs := testing.AllocsPerRun(200, func() {
		driftCycle(g, offsets, cycle)
		seq = g.CandidatePairs(seq[:0])
		cycle++
	})
	if allocs != 0 {
		t.Errorf("steady drifting cycle allocates %.0f times, want 0", allocs)
	}
}

// BenchmarkGridCycleDrifting times one Reset, Insert, CandidatePairs
// cycle of a 150-site cloud that moves onto new cells every cycle.
func BenchmarkGridCycleDrifting(b *testing.B) {
	offsets := driftOffsets(150)
	g := NewGrid(5)
	var buf [][2]int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		driftCycle(g, offsets, i)
		buf = g.CandidatePairs(buf[:0])
	}
}
