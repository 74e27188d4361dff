package client

import (
	"encoding/json"
	"flag"
	"reflect"
	"strings"
	"testing"
)

// TestBindFlagsMatchesJSONNames is the anti-drift guarantee: every flag
// BindFlags registers is a Request JSON field name (underscores dashed),
// every taggable scalar field gets a flag, and the data payload fields do
// not leak into the flag surface.
func TestBindFlagsMatchesJSONNames(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var req Request
	BindFlags(fs, &req)

	got := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) { got[f.Name] = true })

	rt := reflect.TypeOf(Request{})
	want := map[string]bool{}
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		usage := f.Tag.Get("usage")
		if name == "" || name == "-" || usage == "" || usage == "-" {
			continue
		}
		want[strings.ReplaceAll(name, "_", "-")] = true
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flag surface %v\ndiffers from Request JSON names %v", got, want)
	}
	for _, banned := range []string{"points", "ground", "nodes"} {
		if got[banned] {
			t.Fatalf("data field %q leaked into the flag surface", banned)
		}
	}

	// Spot-check the underscore mapping and that parsing lands in the
	// struct (the property the generated CLI depends on).
	if err := fs.Parse([]string{"-lloyd-polish", "-k", "7", "-objective", "u-means", "-engine", "reference"}); err != nil {
		t.Fatal(err)
	}
	if !req.LloydPolish || req.K != 7 || req.Objective != "u-means" || !req.Engine.Reference {
		t.Fatalf("parsed request %+v", req)
	}

	// And the JSON names really are the wire names the server decodes.
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"lloyd_polish":true`, `"k":7`, `"objective":"u-means"`, `"reference":true`} {
		if !strings.Contains(string(raw), key) {
			t.Fatalf("marshalled request %s lacks %s", raw, key)
		}
	}
}
