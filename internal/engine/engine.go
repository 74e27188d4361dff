// Package engine holds the one set of solver-engine knobs shared by every
// layer of the stack: kmedian.Options embeds engine.Options (so every run
// configuration spells them once, in its LocalOpts), kcenter.Opt aliases it
// and client.Request carries it, so "which engine, how many workers" is said
// in exactly one vocabulary from the CLI flags down to the per-site solvers.
// Whether a distance oracle is memoized is not a knob: metric.Memoizes and
// metric.CacheCosts decide it from the instance.
//
// Apart from Algo, which picks the algorithm, the knobs never change
// results — every configuration returns centers bit-identical to the
// Reference engine — they only move wall-clock and memory. That invariant is
// what lets the serving layer pick engine settings per deployment without
// re-validating outputs.
package engine

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Algo selects the k-median optimization algorithm behind the Theorem 3.1
// interface. It crosses every wire as its name; "" reads as Auto, and any
// other name is an error.
type Algo int

// Algorithms.
const (
	Auto        Algo = iota // JV on small instances, local search otherwise
	LocalSearch             // always the swap local search
	JV                      // always the primal-dual Lagrangian engine
)

var algoNames = [...]string{"auto", "localsearch", "jv"}

// String implements fmt.Stringer.
func (a Algo) String() string {
	if b, err := a.MarshalText(); err == nil {
		return string(b)
	}
	return fmt.Sprintf("engine.Algo(%d)", int(a))
}

// MarshalText implements encoding.TextMarshaler.
func (a Algo) MarshalText() ([]byte, error) {
	if a < 0 || int(a) >= len(algoNames) {
		return nil, fmt.Errorf("engine: unknown algorithm %d", int(a))
	}
	return []byte(algoNames[a]), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (a *Algo) UnmarshalText(b []byte) error {
	i := slices.Index(algoNames[:], string(b))
	if len(b) == 0 {
		i = int(Auto)
	}
	if i < 0 {
		return fmt.Errorf("engine: unknown algorithm %q (want auto, localsearch or jv)", b)
	}
	*a = Algo(i)
	return nil
}

// Options are the consolidated engine knobs. The zero value is the default
// fast engine: auto algorithm selection, one worker per CPU.
type Options struct {
	// Algo selects the k-median algorithm. Non-median solvers ignore it.
	Algo Algo `json:"algo,omitempty" usage:"k-median engine: auto | localsearch | jv"`
	// Workers bounds per-solve goroutines (0 = one per CPU); results are
	// bit-identical for every value.
	Workers int `json:"workers,omitempty" usage:"solver goroutines per solve (0 = one per CPU)"`
	// Reference runs the seed sequential algorithms — the baseline half of
	// every engine comparison. Implies Workers=1.
	Reference bool `json:"reference,omitempty" usage:"run the sequential reference engine (implies workers=1)"`
}

// Normalize resolves implied settings: the Reference engine is the seed
// sequential code path, so it forces Workers=1. Idempotent.
func (o Options) Normalize() Options {
	if o.Reference {
		o.Workers = 1
	}
	return o
}

// Spec is Options plus wire/CLI ergonomics: it marshals as the object form
// ({"algo":"jv","workers":4}) and unmarshals from that or from the legacy
// string form ("jv" — just the algorithm) of older journals and request
// bodies, and it implements flag.Value so one -engine flag accepts "jv" or
// "jv,workers=4,reference". Keys the object form does not know — the retired
// cache, index and pivot keys of older journals and clients among them — are
// ignored, as encoding/json ignores any unknown field.
type Spec struct {
	Options
}

// UnmarshalJSON accepts both wire shapes.
func (s *Spec) UnmarshalJSON(b []byte) error {
	t := strings.TrimSpace(string(b))
	if t == "null" {
		return nil
	}
	if strings.HasPrefix(t, "\"") {
		algo, err := strconv.Unquote(t)
		if err != nil {
			return fmt.Errorf("engine: bad string spec %s: %w", t, err)
		}
		s.Options = Options{}
		return s.Algo.UnmarshalText([]byte(algo))
	}
	type alias Options
	var a alias
	if err := json.Unmarshal(b, &a); err != nil {
		return fmt.Errorf("engine: bad spec object: %w", err)
	}
	s.Options = Options(a)
	return nil
}

// String implements flag.Value, rendering the comma token form Set parses.
func (s *Spec) String() string {
	if s == nil {
		return ""
	}
	var parts []string
	if s.Algo != Auto {
		parts = append(parts, s.Algo.String())
	}
	if s.Workers != 0 {
		parts = append(parts, "workers="+strconv.Itoa(s.Workers))
	}
	if s.Reference {
		parts = append(parts, "reference")
	}
	return strings.Join(parts, ",")
}

// Set implements flag.Value: a comma-separated token list where a bare
// algorithm name ("auto", "localsearch", "jv") selects Algo, bare
// "reference" selects the reference engine, and "workers=N" sets the count.
func (s *Spec) Set(v string) error {
	out := Options{}
	for _, tok := range strings.Split(v, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		if key, val, ok := strings.Cut(tok, "="); ok {
			n, err := strconv.Atoi(val)
			if err != nil {
				return fmt.Errorf("engine: %s: %w", tok, err)
			}
			if key != "workers" {
				return fmt.Errorf("engine: unknown setting %q (want %s)", key, strings.Join(specKeys, " | "))
			}
			out.Workers = n
			continue
		}
		if tok == "reference" {
			out.Reference = true
		} else if out.Algo.UnmarshalText([]byte(tok)) != nil {
			return fmt.Errorf("engine: unknown token %q (want %s)", tok, strings.Join(specKeys, " | "))
		}
	}
	s.Options = out
	return nil
}

var specKeys = func() []string {
	ks := []string{"auto", "localsearch", "jv", "reference", "workers=N"}
	sort.Strings(ks)
	return ks
}()
