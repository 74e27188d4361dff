package serve

import (
	"encoding/json"
	"strings"
	"testing"

	"dpc/internal/engine"
)

// The engine object is the only source of a job's engine knobs. Request
// bodies and journal records written before the flat top-level "workers" /
// "no_cache" keys, or the engine's "no_cache" / "index" / "pivots" keys,
// were retired still decode, and those keys are ignored — safe because
// engine knobs never change results — the same way on every replica and
// every journal replay.
// (The test names predate the retirement, when the two spellings were
// merged.)
func TestJobSpecMergeConflictingFlatAndStructured(t *testing.T) {
	cases := []struct {
		name string
		body string
		want engine.Options
	}{
		{
			name: "structured workers wins over flat",
			body: `{"dataset":"d","k":2,"t":1,"workers":8,"engine":{"workers":2}}`,
			want: engine.Options{Workers: 2},
		},
		{
			name: "flat workers alone is ignored",
			body: `{"dataset":"d","k":2,"t":1,"workers":8,"engine":{"algo":"jv"}}`,
			want: engine.Options{Algo: engine.JV},
		},
		{
			name: "flat no_cache alone is ignored",
			body: `{"dataset":"d","k":2,"t":1,"no_cache":true,"engine":{"algo":"jv","no_cache":false}}`,
			want: engine.Options{Algo: engine.JV},
		},
		{
			name: "engine no_cache is ignored",
			body: `{"dataset":"d","k":2,"t":1,"engine":{"no_cache":true}}`,
			want: engine.Options{},
		},
		{
			name: "legacy string engine plus flat knobs",
			body: `{"dataset":"d","k":2,"t":1,"workers":3,"no_cache":true,"engine":"localsearch"}`,
			want: engine.Options{Algo: engine.LocalSearch},
		},
		{
			name: "reference normalization overrides a conflicting flat workers",
			body: `{"dataset":"d","k":2,"t":1,"workers":8,"engine":{"reference":true,"index":true}}`,
			want: engine.Options{Reference: true, Workers: 1},
		},
		{
			name: "retired index knobs are ignored",
			body: `{"dataset":"d","k":2,"t":1,"engine":{"algo":"jv","index":true,"pivots":16}}`,
			want: engine.Options{Algo: engine.JV},
		},
		{
			name: "empty string engine is auto",
			body: `{"dataset":"d","k":2,"t":1,"engine":""}`,
			want: engine.Options{},
		},
		{
			name: "string engine",
			body: `{"dataset":"d","k":2,"t":1,"engine":"jv"}`,
			want: engine.Options{Algo: engine.JV},
		},
		{
			name: "object engine",
			body: `{"dataset":"d","k":2,"t":1,"engine":{"algo":"jv","workers":2}}`,
			want: engine.Options{Algo: engine.JV, Workers: 2},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var spec JobSpec
			if err := json.Unmarshal([]byte(tc.body), &spec); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			if got := spec.EngineOptions(); got != tc.want {
				t.Fatalf("EngineOptions() = %+v, want %+v", got, tc.want)
			}
			// Re-marshalling (the journal write) emits the object form only.
			wire, err := json.Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			var obj struct{ Engine json.RawMessage }
			if err := json.Unmarshal(wire, &obj); err != nil || !strings.HasPrefix(string(obj.Engine), "{") {
				t.Fatalf("re-marshalled engine is %s (%v), want the object form", obj.Engine, err)
			}
		})
	}
}

// A decoded spec must survive the wire round-trip: re-marshaling a JobSpec
// that arrived with retired keys and decoding it again (the journal replay
// path) yields the same engine options.
func TestJobSpecMergeRoundTripStable(t *testing.T) {
	var spec JobSpec
	body := `{"dataset":"d","k":2,"t":1,"workers":8,"no_cache":true,"engine":{"workers":2}}`
	if err := json.Unmarshal([]byte(body), &spec); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	first := spec.EngineOptions()

	wire, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var replayed JobSpec
	if err := json.Unmarshal(wire, &replayed); err != nil {
		t.Fatalf("re-unmarshal: %v", err)
	}
	if second := replayed.EngineOptions(); second != first {
		t.Fatalf("engine options drifted across the wire: %+v then %+v", first, second)
	}
}
