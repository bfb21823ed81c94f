package server

import (
	"encoding/json"
	"testing"
)

// keyOf runs a raw JSON submission through the exact wire path —
// unmarshal, canonicalize, hash — so the equivalence tests cover
// encoding variants, not just Go-level struct equality.
func keyOf(t *testing.T, body string) string {
	t.Helper()
	var req JobRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatalf("unmarshal %s: %v", body, err)
	}
	cj, err := Canonicalize(req)
	if err != nil {
		t.Fatalf("canonicalize %s: %v", body, err)
	}
	return cj.Key()
}

func TestCanonicalKeyEquivalentSubmissions(t *testing.T) {
	// Each group is one cache entry: reordered fields, spelled-out
	// defaults, seed-spec strings vs explicit arrays, and operational
	// knobs (timeout) must all collide on the same key.
	groups := [][]string{
		{
			`{"experiment":"E1"}`,
			`{"experiment":"E1","options":{}}`,
			`{"experiment":"E1","options":{"seed":1}}`, // seed 1 is the default
			`{"options":{"seed":0},"experiment":"E1"}`, // seed 0 normalizes to 1
			`{"experiment":"E1","timeout_seconds":3}`,  // operational, never keyed
		},
		{
			`{"experiment":"E1","seeds":"1..4"}`,
			`{"experiment":"E1","seeds":[1,2,3,4]}`,
			`{"experiment":"E1","seeds":[1,2,3,4],"stream":true}`, // stream defaults true with seeds
			`{"seeds":"1..4","experiment":"E1","options":{"seed":1}}`,
		},
		{
			`{"experiment":"E3","options":{"quick":true,"seed":7}}`,
			`{"options":{"seed":7,"quick":true},"experiment":"E3"}`,
		},
	}
	for gi, group := range groups {
		want := keyOf(t, group[0])
		for _, body := range group[1:] {
			if got := keyOf(t, body); got != want {
				t.Errorf("group %d: %s keyed %s, want %s (as %s)", gi, body, got, want, group[0])
			}
		}
	}
}

func TestCanonicalKeyDistinctSubmissions(t *testing.T) {
	// Anything that changes output bytes must change the key. Seed
	// *order* is significant: the streaming fold is order-sensitive.
	bodies := []string{
		`{"experiment":"E1"}`,
		`{"experiment":"E2"}`,
		`{"experiment":"E1","options":{"seed":2}}`,
		`{"experiment":"E1","options":{"quick":true}}`,
		`{"experiment":"E1","seeds":[1,2]}`,
		`{"experiment":"E1","seeds":[2,1]}`,
		`{"experiment":"E1","seeds":[1,2],"stream":false}`,
	}
	seen := make(map[string]string)
	for _, body := range bodies {
		key := keyOf(t, body)
		if prev, dup := seen[key]; dup {
			t.Errorf("%s and %s share key %s", body, prev, key)
		}
		seen[key] = body
	}
}

// TestCanonicalKeyPinned pins job IDs to their literal values: an ID
// is the content address of a cached result, so any change to the
// canonical encoding would orphan every existing cache entry.
func TestCanonicalKeyPinned(t *testing.T) {
	for _, tc := range []struct{ body, key string }{
		{`{"experiment":"E19","options":{"quick":true},"seeds":"1..8"}`,
			"bc158bf5358f2457e355b61cdcbfc2e3672914e6651169d6709aeafcd4360db1"},
		{`{"experiment":"E1","options":{"seed":7,"quick":true}}`,
			"3eb7626879708b670b485851d70d82268d627735301df305c4a19bc9fe90ba57"},
	} {
		if got := keyOf(t, tc.body); got != tc.key {
			t.Errorf("%s keyed %s, want %s", tc.body, got, tc.key)
		}
	}
}

func TestCanonicalizeRejects(t *testing.T) {
	for _, body := range []string{
		`{"experiment":"E999"}`,                  // unknown experiment
		`{"experiment":"E1","seeds":[]}`,         // empty sweep
		`{"experiment":"E1","seeds":[3,3]}`,      // duplicate seed skews mean±sd
		`{"experiment":"E1","seeds":"nonsense"}`, // unparsable spec
		`{"experiment":"E1","stream":true}`,      // stream without seeds
	} {
		var req JobRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatalf("unmarshal %s: %v", body, err)
		}
		if _, err := Canonicalize(req); err == nil {
			t.Errorf("%s: want validation error, got none", body)
		}
	}
}
