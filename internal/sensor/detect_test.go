package sensor

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"coopmrm/internal/geom"
)

// detectUncut is the reference DetectInto: the distance of every
// target, with no box cull in front of it.
func detectUncut(st *Suite, observer geom.Vec2, targets []Target) []Detection {
	r := st.EffectiveRange()
	var out []Detection
	for _, t := range targets {
		if d := observer.Dist(t.Pos); d <= r {
			out = append(out, Detection{ID: t.ID, Pos: t.Pos, Distance: d})
		}
	}
	slices.SortFunc(out, func(a, b Detection) int {
		if a.Distance != b.Distance {
			if a.Distance < b.Distance {
				return -1
			}
			return 1
		}
		return strings.Compare(a.ID, b.ID)
	})
	return out
}

// checkDetect asserts DetectInto equals the uncut reference and
// returns the detections.
func checkDetect(t *testing.T, name string, st *Suite, observer geom.Vec2, targets []Target) []Detection {
	t.Helper()
	got := st.DetectInto(nil, observer, targets)
	want := detectUncut(st, observer, targets)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: DetectInto diverges from the uncut loop (range %v, observer %v)\n got: %+v\nwant: %+v",
			name, st.EffectiveRange(), observer, got, want)
	}
	return got
}

// TestDetectIntoCullMatchesUncut holds the box cull of DetectInto to
// the uncut distance loop: random clouds over random ranges, targets
// walked float step by float step across |dx| = r and |dy| = r,
// diagonal targets inside the box but outside the circle, NaN
// positions, and a blinded suite (r = 0) with a coincident target.
// A cull that also drops |dx| == r (">=" instead of ">") fails the
// boundary and blinded cases.
func TestDetectIntoCullMatchesUncut(t *testing.T) {
	rng := rand.New(rand.NewSource(7))

	t.Run("random_clouds", func(t *testing.T) {
		for trial := 0; trial < 200; trial++ {
			st := StandardSuite(120)
			_ = st.Degrade("long_range_radar", rng.Float64())
			st.SetWeatherFactor(0.2 + 0.8*rng.Float64())
			observer := geom.V(rng.NormFloat64()*100, rng.NormFloat64()*100)
			targets := make([]Target, 300)
			for i := range targets {
				targets[i] = Target{ID: string(rune('a'+i%26)) + string(rune('a'+i/26)),
					Pos: geom.V(observer.X+rng.NormFloat64()*150, observer.Y+rng.NormFloat64()*150)}
			}
			checkDetect(t, "cloud", st, observer, targets)
		}
	})

	t.Run("axis_boundary", func(t *testing.T) {
		exactHits := 0
		for _, observer := range []geom.Vec2{geom.V(0, 0), geom.V(3.7, -1.1), geom.V(-250.3, 77.9)} {
			for _, weather := range []float64{1, 0.37, 0.9} {
				st := StandardSuite(120)
				st.SetWeatherFactor(weather)
				r := st.EffectiveRange()
				var targets []Target
				add := func(p geom.Vec2) {
					targets = append(targets, Target{ID: string(rune('A'+len(targets)%26)) +
						string(rune('A'+len(targets)/26)), Pos: p})
				}
				// Walk a few float steps either side of each of the four
				// box edges, on the axis through the observer.
				for _, edge := range []struct{ x, y float64 }{
					{observer.X + r, observer.Y}, {observer.X - r, observer.Y},
					{observer.X, observer.Y + r}, {observer.X, observer.Y - r},
				} {
					x, y := edge.x, edge.y
					for k := 0; k < 3; k++ {
						x, y = math.Nextafter(x, math.Inf(-1)), math.Nextafter(y, math.Inf(-1))
					}
					for k := 0; k < 7; k++ {
						p := geom.V(x, y)
						if edge.y == observer.Y {
							p.Y = observer.Y
						} else {
							p.X = observer.X
						}
						add(p)
						off := observer.Sub(p)
						if max(math.Abs(off.X), math.Abs(off.Y)) == r {
							exactHits++
						}
						x, y = math.Nextafter(x, math.Inf(1)), math.Nextafter(y, math.Inf(1))
					}
				}
				checkDetect(t, "boundary", st, observer, targets)
			}
		}
		if exactHits == 0 {
			t.Fatal("no target landed exactly on |d| = r; the boundary walk tests nothing")
		}
	})

	t.Run("diagonal_outside_circle", func(t *testing.T) {
		st := StandardSuite(120)
		observer := geom.V(10, 20)
		targets := []Target{
			{ID: "ne", Pos: geom.V(10+0.8*120, 20+0.8*120)},
			{ID: "sw", Pos: geom.V(10-0.75*120, 20-0.75*120)},
			{ID: "in", Pos: geom.V(10+0.7*120, 20-0.7*120)},
		}
		got := checkDetect(t, "diagonal", st, observer, targets)
		if len(got) != 1 || got[0].ID != "in" {
			t.Fatalf("diagonal detections = %+v, want only \"in\"", got)
		}
	})

	t.Run("nan_position", func(t *testing.T) {
		st := StandardSuite(120)
		targets := []Target{
			{ID: "nanx", Pos: geom.V(math.NaN(), 0)},
			{ID: "nany", Pos: geom.V(5, math.NaN())},
			{ID: "nanxinfy", Pos: geom.V(math.NaN(), math.Inf(1))},
			{ID: "near", Pos: geom.V(1, 1)},
		}
		got := checkDetect(t, "nan", st, geom.V(0, 0), targets)
		if len(got) != 1 || got[0].ID != "near" {
			t.Fatalf("NaN detections = %+v, want only \"near\"", got)
		}
	})

	t.Run("blinded_coincident", func(t *testing.T) {
		st := StandardSuite(120)
		for _, name := range st.Names() {
			_ = st.Fail(name)
		}
		observer := geom.V(42.5, -7.25)
		targets := []Target{{ID: "twin", Pos: observer}, {ID: "far", Pos: geom.V(43, -7.25)}}
		got := checkDetect(t, "blinded", st, observer, targets)
		if len(got) != 1 || got[0].ID != "twin" || got[0].Distance != 0 {
			t.Fatalf("blinded detections = %+v, want the coincident target at 0", got)
		}
	})
}
