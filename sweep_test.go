package coopmrm

import (
	"strings"
	"testing"
)

func TestParseSeedSpec(t *testing.T) {
	seeds, err := ParseSeedSpec("1..5", 1)
	if err != nil || len(seeds) != 5 || seeds[0] != 1 || seeds[4] != 5 {
		t.Errorf("range: %v, %v", seeds, err)
	}
	seeds, err = ParseSeedSpec("3, 5 ,9", 1)
	if err != nil || len(seeds) != 3 || seeds[1] != 5 {
		t.Errorf("list: %v, %v", seeds, err)
	}
	seeds, err = ParseSeedSpec("x4", 7)
	if err != nil || len(seeds) != 4 {
		t.Fatalf("derived: %v, %v", seeds, err)
	}
	dup := map[int64]bool{7: true} // must not collide with the base either
	for _, s := range seeds {
		if dup[s] {
			t.Errorf("derived seeds collide: %v", seeds)
		}
		dup[s] = true
	}
	for _, bad := range []string{"", "5..1", "5..3", "x0", "xq", "a,b", "1...3",
		",", " , ", "3,5,3", "7,7"} {
		if _, err := ParseSeedSpec(bad, 1); err == nil {
			t.Errorf("spec %q should fail", bad)
		}
	}
	if _, err := ParseSeedSpec("3,3", 1); err == nil ||
		!strings.Contains(err.Error(), "duplicate seed 3") {
		t.Errorf("duplicate list seed: err = %v, want duplicate-seed error", err)
	}
	// A whitespace-only spec is the empty spec, not a one-element list.
	if _, err := ParseSeedSpec("   ", 1); err == nil {
		t.Error("whitespace-only spec should fail")
	}
}

// The x<count> form shares the allocation cap of the <lo>..<hi> form:
// both build the full seed list up front.
func TestParseSeedSpecRangeCap(t *testing.T) {
	for _, bad := range []string{"x1048577", "1..1048577"} {
		if _, err := ParseSeedSpec(bad, 1); err == nil ||
			!strings.Contains(err.Error(), "range too large") {
			t.Errorf("spec %q: err = %v, want range-too-large error", bad, err)
		}
	}
	// The cap itself is allowed on both forms.
	if seeds, err := ParseSeedSpec("x1048576", 1); err != nil || len(seeds) != 1<<20 {
		t.Errorf("x-form at the cap: %d seeds, %v", len(seeds), err)
	}
	if seeds, err := ParseSeedSpec("1..1048576", 1); err != nil || len(seeds) != 1<<20 {
		t.Errorf("range form at the cap: %d seeds, %v", len(seeds), err)
	}
}

// seedSpan prints short lists verbatim and long lists as their true
// span — first..last with the count, never a misleading "and N more"
// anchored on the second element.
func TestSeedSpan(t *testing.T) {
	mk := func(n int) []int64 {
		seeds := make([]int64, n)
		for i := range seeds {
			seeds[i] = int64(i + 1)
		}
		return seeds
	}
	cases := []struct {
		seeds []int64
		want  string
	}{
		{nil, ""},
		{mk(1), "1"},
		{mk(4), "1,2,3,4"},
		{mk(5), "1..5 (5 seeds)"},
		{mk(32), "1..32 (32 seeds)"},
		// Non-contiguous lists must not render as a dense range: plain
		// "3..20 (5 seeds)" for 3,5,9,11,20 would imply all 18 seeds
		// of the inclusive range ran.
		{[]int64{3, 5, 9, 11, 20}, "3..20 (5 seeds, sparse)"},
		{[]int64{10, 3, 99, 7, 42}, "10..42 (5 seeds, sparse)"}, // first..last, not min..max
	}
	for _, tc := range cases {
		if got := seedSpan(tc.seeds); got != tc.want {
			t.Errorf("seedSpan(%v) = %q, want %q", tc.seeds, got, tc.want)
		}
	}
}

// aggregateCell unit handling: the % suffix survives aggregation when
// every cell carries it, and non-finite parses never reach mean±sd.
// The sd is the Bessel-corrected sample sd (÷ n-1): {50, 60} spreads
// ±7.07, not the population ±5.00 that underreported it.
func TestAggregateCellUnits(t *testing.T) {
	cases := []struct {
		name  string
		cells []string
		want  string
	}{
		{"identical kept verbatim", []string{"52.1%", "52.1%", "52.1%"}, "52.1%"},
		{"all percent", []string{"50%", "60%"}, "55.00±7.07%"},
		{"percent with spaces", []string{" 50% ", "60%"}, "55.00±7.07%"},
		{"mixed unit drops suffix", []string{"50%", "60"}, "55.00±7.07"},
		{"plain numeric", []string{"1.0", "3.0", "2.0"}, "2.00±1.00"},
		// Regression guard for the population-sd bug: {0, 2} has
		// sample sd √2, the old ÷n formula reported exactly 1.00.
		{"bessel correction at n=2", []string{"0", "2"}, "1.00±1.41"},
		{"NaN is non-numeric", []string{"NaN", "2.0"}, "varies(2)"},
		{"Inf is non-numeric", []string{"+Inf", "2.0", "3.0"}, "varies(3)"},
		{"NaN percent", []string{"NaN%", "50%"}, "varies(2)"},
		{"divergent text", []string{"yes", "no", "yes"}, "varies(2)"},
	}
	for _, tc := range cases {
		if got := aggregateCell(tc.cells); got != tc.want {
			t.Errorf("%s: aggregateCell(%v) = %q, want %q", tc.name, tc.cells, got, tc.want)
		}
	}
}

func TestDeriveSeedProperties(t *testing.T) {
	seen := map[int64]bool{}
	for job := 0; job < 1000; job++ {
		s := DeriveSeed(42, job)
		if s == 0 {
			t.Fatal("derived seed must never be 0 (Options default sentinel)")
		}
		if seen[s] {
			t.Fatalf("seed collision at job %d", job)
		}
		seen[s] = true
	}
	if DeriveSeed(1, 0) == DeriveSeed(2, 0) {
		t.Error("different bases should derive different streams")
	}
	if DeriveSeed(1, 3) != DeriveSeed(1, 3) {
		t.Error("derivation must be deterministic")
	}
}

func TestAggregateSeedTables(t *testing.T) {
	mk := func(speed, state string) Table {
		tab := Table{ID: "T", Title: "demo", Header: []string{"arm", "speed", "state"}}
		tab.AddRow("a", speed, state)
		return tab
	}
	agg := AggregateSeedTables([]Table{mk("1.0", "ok"), mk("3.0", "ok"), mk("2.0", "bad")},
		[]int64{1, 2, 3})
	if agg.Cell(0, 0) != "a" {
		t.Errorf("identical cells must be kept verbatim: %q", agg.Cell(0, 0))
	}
	if agg.Cell(0, 1) != "2.00±1.00" {
		t.Errorf("numeric cell = %q, want Bessel-corrected mean±sd", agg.Cell(0, 1))
	}
	if agg.Cell(0, 2) != "varies(2)" {
		t.Errorf("divergent cell = %q", agg.Cell(0, 2))
	}
	if !strings.Contains(agg.Note, "aggregated over 3 seeds (1,2,3)") {
		t.Errorf("note = %q", agg.Note)
	}
}

// A sweep must be reproducible and independent of the worker count.
func TestSweepSeedsDeterministic(t *testing.T) {
	e, _ := ExperimentByID("E1")
	seeds := []int64{1, 2, 3, 4}
	serial, err := SweepSeeds(e, Options{Quick: true}, seeds, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := SweepSeeds(e, Options{Quick: true}, seeds, 4)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Render() != par.Render() {
		t.Errorf("sweep differs between 1 and 4 workers:\n%s\nvs\n%s",
			serial.Render(), par.Render())
	}
	if len(serial.Rows) == 0 {
		t.Error("sweep produced no rows")
	}
}
