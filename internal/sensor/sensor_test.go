package sensor

import (
	"math"
	"slices"
	"testing"

	"coopmrm/internal/geom"
)

func TestSuiteEffectiveRange(t *testing.T) {
	st := StandardSuite(100)
	if r := st.EffectiveRange(); r != 100 {
		t.Errorf("EffectiveRange = %v, want 100", r)
	}
	// Long-range radar fails: fall back to camera (60).
	if err := st.Fail("long_range_radar"); err != nil {
		t.Fatal(err)
	}
	if r := st.EffectiveRange(); r != 60 {
		t.Errorf("after radar fail = %v, want 60", r)
	}
	// Camera degraded 50%: short_range (30) wins.
	if err := st.Degrade("camera", 0.4); err != nil {
		t.Fatal(err)
	}
	if r := st.EffectiveRange(); r != 30 {
		t.Errorf("after camera degrade = %v, want 30", r)
	}
	// Repair.
	if err := st.Restore("long_range_radar"); err != nil {
		t.Fatal(err)
	}
	if r := st.EffectiveRange(); r != 100 {
		t.Errorf("after restore = %v, want 100", r)
	}
}

func TestSuiteUnknownSensor(t *testing.T) {
	st := StandardSuite(100)
	if err := st.Fail("nope"); err == nil {
		t.Error("unknown sensor should error")
	}
	if err := st.Degrade("nope", 0.5); err == nil {
		t.Error("unknown sensor should error")
	}
	if err := st.Restore("nope"); err == nil {
		t.Error("unknown sensor should error")
	}
}

func TestSuiteWeather(t *testing.T) {
	st := StandardSuite(100)
	st.SetWeatherFactor(0.45)
	if r := st.EffectiveRange(); math.Abs(r-45) > 1e-9 {
		t.Errorf("heavy rain range = %v, want 45", r)
	}
	st.SetWeatherFactor(1)
	if r := st.EffectiveRange(); r != 100 {
		t.Errorf("cleared range = %v", r)
	}
	// Clamp silly values.
	st.SetWeatherFactor(-3)
	if st.EffectiveRange() <= 0 {
		t.Error("weather factor clamp should keep tiny positive range")
	}
}

func TestFrontRange(t *testing.T) {
	st := StandardSuite(100)
	if st.FrontRange() != 100 {
		t.Errorf("FrontRange = %v", st.FrontRange())
	}
	_ = st.Fail("long_range_radar")
	if st.FrontRange() != 60 {
		t.Errorf("FrontRange after radar fail = %v, want camera 60", st.FrontRange())
	}
	_ = st.Fail("camera")
	if st.FrontRange() != 0 {
		t.Errorf("FrontRange with all front sensors dead = %v", st.FrontRange())
	}
	// Non-front sensor still gives overall range.
	if st.EffectiveRange() != 30 {
		t.Errorf("EffectiveRange = %v, want 30", st.EffectiveRange())
	}
}

func TestBlind(t *testing.T) {
	st := StandardSuite(100)
	for _, n := range st.Names() {
		_ = st.Fail(n)
	}
	if !st.Blind() {
		t.Error("all sensors dead should be blind")
	}
}

func TestDetect(t *testing.T) {
	st := StandardSuite(100)
	targets := []Target{
		{ID: "far", Pos: geom.V(150, 0)},
		{ID: "near", Pos: geom.V(10, 0)},
		{ID: "mid", Pos: geom.V(50, 0)},
	}
	got := st.Detect(geom.V(0, 0), targets)
	if len(got) != 2 || got[0].ID != "near" || got[1].ID != "mid" {
		t.Errorf("Detect = %+v", got)
	}
	if got[0].Distance != 10 {
		t.Errorf("distance = %v", got[0].Distance)
	}
	// Degraded: only near remains.
	_ = st.Fail("long_range_radar")
	_ = st.Fail("camera")
	got = st.Detect(geom.V(0, 0), targets)
	if len(got) != 1 || got[0].ID != "near" {
		t.Errorf("degraded Detect = %+v", got)
	}
}

func TestDetectTieBreak(t *testing.T) {
	st := StandardSuite(100)
	targets := []Target{
		{ID: "b", Pos: geom.V(10, 0)},
		{ID: "a", Pos: geom.V(-10, 0)},
	}
	got := st.Detect(geom.V(0, 0), targets)
	if len(got) != 2 || got[0].ID != "a" {
		t.Errorf("tie break = %+v", got)
	}
}

func TestNewSuiteDuplicateNames(t *testing.T) {
	st := NewSuite(
		Sensor{Name: "x", NominalRange: 10},
		Sensor{Name: "x", NominalRange: 99},
	)
	if len(st.Names()) != 1 {
		t.Errorf("duplicate names should collapse: %v", st.Names())
	}
	if st.EffectiveRange() != 10 {
		t.Errorf("first definition should win: %v", st.EffectiveRange())
	}
}

// Reinit with definitions that differ from the suite's current sensors
// rebuilds it as NewSuite would: ranges, health and name lookup follow
// the new definitions, and the old names are gone.
func TestSuiteReinitMismatchedDefinitions(t *testing.T) {
	st := StandardSuite(100)
	if err := st.Fail("long_range_radar"); err != nil {
		t.Fatal(err)
	}
	defs := []Sensor{
		{Name: "lidar", NominalRange: 70},
		{Name: "radar", NominalRange: 90, FrontFacing: true},
		{Name: "lidar", NominalRange: 500}, // dropped: first definition wins
	}
	st.Reinit(defs...)
	fresh := NewSuite(defs...)
	if got, want := st.EffectiveRange(), fresh.EffectiveRange(); got != want || got != 90 {
		t.Errorf("EffectiveRange after Reinit = %v, fresh suite %v, want 90", got, want)
	}
	if got := st.Names(); !slices.Equal(got, []string{"lidar", "radar"}) {
		t.Errorf("Names = %v", got)
	}
	if err := st.Fail("long_range_radar"); err == nil {
		t.Error("a sensor of the old definitions is still known")
	}
	if err := st.Fail("radar"); err != nil {
		t.Fatal(err)
	}
	if r, fr := st.EffectiveRange(), st.FrontRange(); r != 70 || fr != 0 {
		t.Errorf("after radar fail: range %v, front %v, want 70, 0", r, fr)
	}
	// Same names again: the in-place path restores full health.
	st.Reinit(defs[:2]...)
	if r := st.EffectiveRange(); r != 90 {
		t.Errorf("in-place Reinit range = %v, want 90", r)
	}
}

// Regression: NewSuite silently dropped duplicate sensor definitions,
// so a typo in a suite config lost a sensor without a trace. The
// strict constructor makes it an error.
func TestNewSuiteStrictRejectsDuplicates(t *testing.T) {
	if _, err := NewSuiteStrict(
		Sensor{Name: "x", NominalRange: 10},
		Sensor{Name: "x", NominalRange: 99},
	); err == nil {
		t.Error("duplicate sensor names must be an error")
	}
	if _, err := NewSuiteStrict(Sensor{NominalRange: 10}); err == nil {
		t.Error("empty sensor name must be an error")
	}
	st, err := NewSuiteStrict(
		Sensor{Name: "a", NominalRange: 10},
		Sensor{Name: "b", NominalRange: 20},
	)
	if err != nil || len(st.Names()) != 2 {
		t.Errorf("valid suite rejected: %v %v", st, err)
	}
	if err := Validate(
		Sensor{Name: "a"}, Sensor{Name: "b"}, Sensor{Name: "a"},
	); err == nil {
		t.Error("Validate must catch the duplicate")
	}
}

// StandardSuite goes through the strict path: its fixed definitions
// must stay valid.
func TestStandardSuiteStrict(t *testing.T) {
	st := StandardSuite(100)
	if len(st.Names()) != 3 {
		t.Errorf("standard suite = %v", st.Names())
	}
}
