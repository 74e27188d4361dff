package engine

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestNormalizeReferenceImplies(t *testing.T) {
	o := Options{Reference: true, Workers: 8, Algo: JV}
	n := o.Normalize()
	if n.Workers != 1 {
		t.Fatalf("Normalize(reference) = %+v, want workers=1", n)
	}
	if n.Algo != JV {
		t.Fatalf("Normalize clobbered Algo: %+v", n)
	}
	if again := n.Normalize(); again != n {
		t.Fatalf("Normalize not idempotent: %+v vs %+v", again, n)
	}
	if fast := (Options{Workers: 3, Algo: JV}).Normalize(); fast != (Options{Workers: 3, Algo: JV}) {
		t.Fatalf("Normalize touched a non-reference config: %+v", fast)
	}
}

func TestSpecJSONStringForm(t *testing.T) {
	// Legacy wire shape of older journals and request bodies: a bare string
	// is just the algorithm, and "" is the default one.
	for body, want := range map[string]Options{`"jv"`: {Algo: JV}, `"localsearch"`: {Algo: LocalSearch}, `""`: {}} {
		s := Spec{Options{Workers: 3}}
		if err := json.Unmarshal([]byte(body), &s); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if s.Options != want {
			t.Fatalf("string form %s decoded to %+v, want %+v", body, s.Options, want)
		}
	}
	// Only the object form is ever written back.
	b, err := json.Marshal(Spec{Options{Algo: JV}})
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `{"algo":"jv"}` {
		t.Fatalf("algo-only spec marshaled to %s, want the object form", b)
	}
}

func TestSpecJSONObjectForm(t *testing.T) {
	var out Spec
	for _, algo := range []Algo{Auto, LocalSearch, JV} {
		in := Spec{Options{Algo: algo, Workers: 4, Reference: true}}
		b, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		if algo != Auto && !strings.Contains(string(b), `"algo":"`+algo.String()+`"`) {
			t.Fatalf("%v marshaled to %s, want its name", algo, b)
		}
		out = Spec{Options{Algo: 7}}
		if err := json.Unmarshal(b, &out); err != nil {
			t.Fatal(err)
		}
		if out != in {
			t.Fatalf("object round trip %s decoded to %+v", b, out.Options)
		}
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
	if err := s.Set("jv,workers=4,reference"); err != nil {
		t.Fatal(err)
	}
	want := Options{Algo: JV, Workers: 4, Reference: true}
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
	if err := s.Set("localsearch"); err != nil {
		t.Fatal(err)
	}
	if s.Options != (Options{Algo: LocalSearch}) {
		t.Fatalf("Set did not replace: %+v", s.Options)
	}
	// Spaces and empty tokens are tolerated.
	if err := s.Set(" auto , reference ,"); err != nil {
		t.Fatal(err)
	}
	if s.Options != (Options{Algo: Auto, Reference: true}) {
		t.Fatalf("Set with spaces parsed %+v", s.Options)
	}
}

func TestSpecFlagErrors(t *testing.T) {
	for _, bad := range []string{"bogus", "warp", "JV", "workers=many", "depth=3", "index=1", "index", "pivots=16"} {
		var s Spec
		if err := s.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted an invalid spec", bad)
		}
	}
	// Memoization is not a knob: the retired cache tokens are unknown, and
	// the error lists every valid token.
	for _, retired := range []string{"nocache", "no-cache", "no_cache", "jv,nocache"} {
		var s Spec
		err := s.Set(retired)
		if err == nil {
			t.Fatalf("Set(%q) accepted the retired cache token", retired)
		}
		for _, tok := range specKeys {
			if !strings.Contains(err.Error(), tok) {
				t.Fatalf("Set(%q) error %q does not list %q", retired, err, tok)
			}
		}
	}
	// An unknown algorithm fails at decode in either JSON form, and so does
	// a numeric one.
	for _, bad := range []string{`{"workers":"four"}`, `"warp"`, `{"algo":"warp"}`, `{"algo":2}`} {
		var s Spec
		if err := json.Unmarshal([]byte(bad), &s); err == nil {
			t.Errorf("UnmarshalJSON accepted %s", bad)
		}
	}
	// A value outside the enum has no name to cross the wire with.
	if b, err := json.Marshal(Spec{Options{Algo: 7}}); err == nil {
		t.Errorf("Algo(7) marshaled to %s", b)
	}
}

// TestSpecIsZero: the zero Spec is the default engine in every form — it
// marshals as the empty object and renders as the empty flag value.
func TestSpecIsZero(t *testing.T) {
	if b, err := json.Marshal(Spec{}); err != nil || string(b) != "{}" {
		t.Fatalf("zero Spec marshaled to %s, %v; want {}", b, err)
	}
	if s := (Spec{}); s.String() != "" {
		t.Fatalf("zero Spec renders %q", s.String())
	}
	if b, _ := json.Marshal(Spec{Options{Workers: 2}}); string(b) == "{}" {
		t.Fatal("a non-zero Spec marshaled as the empty object")
	}
}
