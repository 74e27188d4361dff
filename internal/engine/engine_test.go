package engine

import (
	"encoding/json"
	"testing"
)

func TestNormalizeReferenceImplies(t *testing.T) {
	o := Options{Reference: true, Workers: 8, Algo: "jv"}
	n := o.Normalize()
	if n.Workers != 1 || !n.NoCache {
		t.Fatalf("Normalize(reference) = %+v, want workers=1 nocache", n)
	}
	if n.Algo != "jv" {
		t.Fatalf("Normalize clobbered Algo: %+v", n)
	}
	if again := n.Normalize(); again != n {
		t.Fatalf("Normalize not idempotent: %+v vs %+v", again, n)
	}
	if fast := (Options{Workers: 3, Algo: "jv"}).Normalize(); fast != (Options{Workers: 3, Algo: "jv"}) {
		t.Fatalf("Normalize touched a non-reference config: %+v", fast)
	}
}

func TestSpecJSONStringForm(t *testing.T) {
	// Legacy wire shape: a bare string is just the algorithm.
	var s Spec
	if err := json.Unmarshal([]byte(`"jv"`), &s); err != nil {
		t.Fatal(err)
	}
	if s.Options != (Options{Algo: "jv"}) {
		t.Fatalf("string form decoded to %+v", s.Options)
	}
	// And an algo-only spec marshals back to exactly that string, so older
	// journals and clients keep seeing the shape they wrote.
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"jv"` {
		t.Fatalf("algo-only spec marshaled to %s, want \"jv\"", b)
	}
}

func TestSpecJSONObjectForm(t *testing.T) {
	in := Spec{Options{Algo: "localsearch", Workers: 4, NoCache: true}}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Spec
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("object round trip %s decoded to %+v", b, out.Options)
	}
	// null leaves the spec untouched (absent field in a containing struct).
	prev := out
	if err := json.Unmarshal([]byte("null"), &out); err != nil {
		t.Fatal(err)
	}
	if out != prev {
		t.Fatalf("null mutated the spec: %+v", out.Options)
	}
}

func TestSpecFlagTokens(t *testing.T) {
	var s Spec
	if err := s.Set("jv,workers=4,nocache"); err != nil {
		t.Fatal(err)
	}
	want := Options{Algo: "jv", Workers: 4, NoCache: true}
	if s.Options != want {
		t.Fatalf("Set parsed %+v, want %+v", s.Options, want)
	}
	// String renders a form Set parses back to the same options.
	var rt Spec
	if err := rt.Set(s.String()); err != nil {
		t.Fatal(err)
	}
	if rt.Options != s.Options {
		t.Fatalf("String/Set round trip: %+v vs %+v", rt.Options, s.Options)
	}
	// Set replaces, not merges: a later -engine flag wins outright.
	if err := s.Set("reference"); err != nil {
		t.Fatal(err)
	}
	if s.Options != (Options{Reference: true}) {
		t.Fatalf("Set did not replace: %+v", s.Options)
	}
	// Spaces and empty tokens are tolerated.
	if err := s.Set(" auto , nocache ,"); err != nil {
		t.Fatal(err)
	}
	if s.Options != (Options{Algo: "auto", NoCache: true}) {
		t.Fatalf("Set with spaces parsed %+v", s.Options)
	}
}

func TestSpecFlagErrors(t *testing.T) {
	for _, bad := range []string{"bogus", "workers=many", "depth=3", "index=1", "index", "pivots=16"} {
		var s Spec
		if err := s.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted an invalid spec", bad)
		}
	}
	var s Spec
	if err := json.Unmarshal([]byte(`{"workers":"four"}`), &s); err == nil {
		t.Error("UnmarshalJSON accepted a mistyped object")
	}
}

func TestSpecIsZero(t *testing.T) {
	var s Spec
	if !s.IsZero() {
		t.Fatal("zero Spec not IsZero")
	}
	s.NoCache = true
	if s.IsZero() {
		t.Fatal("non-zero Spec reported IsZero")
	}
	if s := (Spec{}); s.String() != "" {
		t.Fatalf("zero Spec renders %q", s.String())
	}
}
