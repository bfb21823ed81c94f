// Package sensor simulates the perception stack of a constituent:
// a suite of named sensors whose combined effective range depends on
// per-sensor health and on weather attenuation. The paper's fault
// examples ("long-range radar fails → lower speed", "front-facing
// sensor fails → cannot lead", "rain shrinks perception") all map to
// range and availability changes in this model.
package sensor

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"coopmrm/internal/geom"
)

// Sensor is one perception device.
type Sensor struct {
	Name         string
	NominalRange float64 // metres in clear weather
	// FrontFacing marks sensors needed for lead roles (platooning).
	FrontFacing bool

	health float64 // 0 = dead, 1 = nominal
}

// Health returns the sensor's health in [0, 1].
func (s *Sensor) Health() float64 { return s.health }

// Suite is a set of sensors belonging to one constituent.
type Suite struct {
	// sensors holds the sensors in definition order, which the range
	// scans walk; byName maps a name to its index there, for lookup by
	// name only.
	sensors []Sensor
	byName  map[string]int
	// weatherFactor is the current environmental attenuation in (0,1].
	weatherFactor float64
}

// Validate checks a sensor definition list for configuration
// mistakes: empty names and duplicate names (a duplicate would
// silently shadow the first definition's health and range).
func Validate(sensors ...Sensor) error {
	seen := make(map[string]bool, len(sensors))
	for _, s := range sensors {
		if s.Name == "" {
			return fmt.Errorf("sensor: sensor with empty name")
		}
		if seen[s.Name] {
			return fmt.Errorf("sensor: duplicate sensor name %q", s.Name)
		}
		seen[s.Name] = true
	}
	return nil
}

// NewSuite builds a suite from sensor definitions; all start healthy.
// Definitions that fail Validate are dropped (first definition of a
// duplicated name wins) — prefer NewSuiteStrict, which surfaces the
// mistake instead of hiding it.
func NewSuite(sensors ...Sensor) *Suite {
	st := &Suite{}
	st.Reinit(sensors...)
	return st
}

// NewSuiteStrict is NewSuite with Validate applied first: duplicate
// or empty sensor names are an error rather than a silent drop.
func NewSuiteStrict(sensors ...Sensor) (*Suite, error) {
	if err := Validate(sensors...); err != nil {
		return nil, err
	}
	return NewSuite(sensors...), nil
}

// Reinit resets the suite in place to what NewSuite(sensors...) would
// build — the warm-rig path reuses suite allocations across runs.
// When the definitions match the suite's current sensors by name and
// order (the steady state: a reused rig rebuilds the same fleet), the
// name index is kept and the sensors are overwritten in place;
// otherwise both are rebuilt as NewSuite would.
func (st *Suite) Reinit(sensors ...Sensor) {
	st.weatherFactor = 1
	if len(sensors) == len(st.sensors) {
		same := true
		for i, s := range sensors {
			if st.sensors[i].Name != s.Name {
				same = false
				break
			}
		}
		if same {
			for i, s := range sensors {
				s.health = 1
				st.sensors[i] = s
			}
			return
		}
	}
	st.sensors = st.sensors[:0]
	clear(st.byName)
	if st.byName == nil {
		st.byName = make(map[string]int, len(sensors))
	}
	for _, s := range sensors {
		if _, dup := st.byName[s.Name]; dup {
			continue
		}
		s.health = 1
		st.byName[s.Name] = len(st.sensors)
		st.sensors = append(st.sensors, s)
	}
}

// standardSensors is the fixed definition list behind StandardSuite
// and ReinitStandard — one source so the two paths cannot diverge.
func standardSensors(nominalRange float64) [3]Sensor {
	return [3]Sensor{
		{Name: "long_range_radar", NominalRange: nominalRange, FrontFacing: true},
		{Name: "camera", NominalRange: nominalRange * 0.6, FrontFacing: true},
		{Name: "short_range", NominalRange: nominalRange * 0.3},
	}
}

// StandardSuite returns a typical long+short range suite whose best
// range equals nominalRange.
func StandardSuite(nominalRange float64) *Suite {
	defs := standardSensors(nominalRange)
	st, err := NewSuiteStrict(defs[:]...)
	if err != nil {
		panic(err) // the fixed definitions above can never collide
	}
	return st
}

// ReinitStandard resets the suite in place to exactly
// StandardSuite(nominalRange), reusing its storage.
func (st *Suite) ReinitStandard(nominalRange float64) {
	defs := standardSensors(nominalRange)
	st.Reinit(defs[:]...)
}

// Names returns the sensor names in definition order.
func (st *Suite) Names() []string {
	out := make([]string, len(st.sensors))
	for i := range st.sensors {
		out[i] = st.sensors[i].Name
	}
	return out
}

// SetWeatherFactor sets the environmental attenuation in (0, 1].
func (st *Suite) SetWeatherFactor(f float64) {
	st.weatherFactor = geom.Clamp(f, 0.01, 1)
}

// Fail marks a sensor dead. Unknown names are an error.
func (st *Suite) Fail(name string) error { return st.setHealth(name, 0) }

// Degrade sets a sensor's health factor in [0, 1].
func (st *Suite) Degrade(name string, health float64) error {
	return st.setHealth(name, geom.Clamp(health, 0, 1))
}

// Restore marks a sensor healthy.
func (st *Suite) Restore(name string) error { return st.setHealth(name, 1) }

func (st *Suite) setHealth(name string, h float64) error {
	i, ok := st.byName[name]
	if !ok {
		return fmt.Errorf("sensor: unknown sensor %q", name)
	}
	st.sensors[i].health = h
	return nil
}

// EffectiveRange returns the best current detection range across all
// sensors, after health and weather attenuation.
func (st *Suite) EffectiveRange() float64 {
	best := 0.0
	for i := range st.sensors {
		s := &st.sensors[i]
		r := s.NominalRange * s.health * st.weatherFactor
		if r > best {
			best = r
		}
	}
	return best
}

// FrontRange returns the best current range over front-facing sensors
// only — the quantity that gates platoon-lead capability.
func (st *Suite) FrontRange() float64 {
	best := 0.0
	for i := range st.sensors {
		s := &st.sensors[i]
		if !s.FrontFacing {
			continue
		}
		r := s.NominalRange * s.health * st.weatherFactor
		if r > best {
			best = r
		}
	}
	return best
}

// Blind reports whether no sensor currently detects anything.
func (st *Suite) Blind() bool { return st.EffectiveRange() <= 0 }

// Target is a detectable object.
type Target struct {
	ID  string
	Pos geom.Vec2
}

// Detection is one perceived target with its measured distance.
type Detection struct {
	ID       string
	Pos      geom.Vec2
	Distance float64
}

// Detect returns the targets within the suite's effective range of
// the observer position, nearest first (ties by ID).
func (st *Suite) Detect(observer geom.Vec2, targets []Target) []Detection {
	return st.DetectInto(nil, observer, targets)
}

// DetectInto is Detect appending into buf, so per-tick callers can
// reuse scratch storage instead of allocating a detection slice every
// tick. The sort is slices.SortFunc rather than sort.Slice to avoid
// the reflect-based swapper allocation on the hot path.
//
// A target whose offset exceeds the range on either axis is skipped
// before the distance is computed. The cull is exact: the distance is
// math.Hypot of the same offset (observer.Dist(t.Pos)), which evaluates
// max·sqrt(1+(min/max)²) and so is never below max(|dx|, |dy|). A NaN
// offset never compares greater, so it reaches the distance test,
// which decides it exactly as without the cull.
func (st *Suite) DetectInto(buf []Detection, observer geom.Vec2, targets []Target) []Detection {
	r := st.EffectiveRange()
	start := len(buf)
	for _, t := range targets {
		off := observer.Sub(t.Pos)
		if math.Abs(off.X) > r || math.Abs(off.Y) > r {
			continue
		}
		d := off.Len()
		if d <= r {
			buf = append(buf, Detection{ID: t.ID, Pos: t.Pos, Distance: d})
		}
	}
	slices.SortFunc(buf[start:], func(a, b Detection) int {
		if a.Distance != b.Distance {
			if a.Distance < b.Distance {
				return -1
			}
			return 1
		}
		return strings.Compare(a.ID, b.ID)
	})
	return buf
}
