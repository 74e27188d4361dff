// Package tree arranges a protocol run's s sites under intermediate
// aggregator nodes with a configurable branching factor, so the
// coordinator's connection fan-in is the branching factor instead of s.
//
// The paper's star network ships every site summary straight to the
// coordinator: total communication is the optimal Õ((sk+t)B), and the
// coordinator holds s connections and reads s messages a round. Following
// the hierarchical-aggregation line (Bendechache et al.), an aggregator
// gathers its subtree's summaries into one batch before forwarding upward.
// Unlike that line's merge, the batch here is a lossless relay: an
// associative re-grouping of the same summaries, each carried exactly as
// its site encoded it (batch.go is framing, the payload format belongs to
// internal/comm) and split back into per-site payloads at the root — so
// every protocol driver in the repository runs unchanged over a tree and
// returns centers byte-identical to the star. The root's inbox is therefore
// the star's plus a few bytes of framing per site; what the tree buys is
// branch links at the root instead of s, and the physical traffic of every
// tier attributed per level in comm.TreeStats.
package tree

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// DefaultBranch is the branching factor used when a tree topology is
// selected without an explicit branch=N.
const DefaultBranch = 8

// Spec selects the coordinator fan-in topology. The zero value is the
// paper's star. It implements flag.Value ("star", "tree", "tree,branch=8")
// and marshals to JSON in the same compact string form, mirroring
// engine.Spec's ergonomics so -topology reads like -engine.
type Spec struct {
	// Tree enables the aggregation tree; false is the star.
	Tree bool `json:"tree,omitempty"`
	// Branch is the branching factor (direct children per node);
	// 0 means DefaultBranch.
	Branch int `json:"branch,omitempty"`
}

// Enabled reports whether an aggregation tree was requested.
func (s Spec) Enabled() bool { return s.Tree }

// BranchOrDefault resolves the effective branching factor.
func (s Spec) BranchOrDefault() int {
	if s.Branch <= 0 {
		return DefaultBranch
	}
	return s.Branch
}

// Validate rejects unusable branching factors.
func (s Spec) Validate() error {
	if s.Tree && s.Branch != 0 && s.Branch < 2 {
		return fmt.Errorf("tree: branching factor %d (want >= 2)", s.Branch)
	}
	return nil
}

// String implements flag.Value, rendering the token form Set parses.
func (s *Spec) String() string {
	if s == nil || !s.Tree {
		return "star"
	}
	if s.Branch == 0 {
		return "tree"
	}
	return "tree,branch=" + strconv.Itoa(s.Branch)
}

// Set implements flag.Value: "star" (the default), "tree", or
// "tree,branch=N".
func (s *Spec) Set(v string) error {
	out := Spec{}
	for _, tok := range strings.Split(v, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		if val, ok := strings.CutPrefix(tok, "branch="); ok {
			n, err := strconv.Atoi(val)
			if err != nil {
				return fmt.Errorf("tree: %s: %w", tok, err)
			}
			out.Branch = n
			continue
		}
		switch tok {
		case "star":
			out = Spec{}
		case "tree":
			out.Tree = true
		default:
			return fmt.Errorf("tree: unknown topology token %q (want star | tree | branch=N)", tok)
		}
	}
	if err := out.Validate(); err != nil {
		return err
	}
	*s = out
	return nil
}

// MarshalJSON emits the compact string form ("star" / "tree,branch=8").
func (s Spec) MarshalJSON() ([]byte, error) {
	sp := s
	return []byte(strconv.Quote(sp.String())), nil
}

// UnmarshalJSON accepts the string form or the object form
// ({"tree":true,"branch":8}).
func (s *Spec) UnmarshalJSON(b []byte) error {
	t := strings.TrimSpace(string(b))
	if t == "null" {
		return nil
	}
	if strings.HasPrefix(t, "\"") {
		str, err := strconv.Unquote(t)
		if err != nil {
			return fmt.Errorf("tree: bad topology string %s: %w", t, err)
		}
		return s.Set(str)
	}
	type alias Spec
	var a alias
	if err := json.Unmarshal(b, &a); err != nil {
		return fmt.Errorf("tree: bad topology object: %w", err)
	}
	if err := Spec(a).Validate(); err != nil {
		return err
	}
	*s = Spec(a)
	return nil
}

// groupSizes splits n leaves into ceil(n/branch) contiguous groups of at
// most branch each, the deterministic plan every layer (in-process trees,
// daemons, the bench and the CI smoke) derives identically: group j owns
// units [j*branch, min((j+1)*branch, n)).
func groupSizes(n, branch int) []int {
	g := (n + branch - 1) / branch
	sizes := make([]int, g)
	for j := range sizes {
		lo := j * branch
		hi := lo + branch
		if hi > n {
			hi = n
		}
		sizes[j] = hi - lo
	}
	return sizes
}

// Groups is the exported plan: the contiguous group sizes for n units under
// branching factor b. Aggregator j of a level owns the units whose indexes
// fall in the half-open range starting at the sum of the sizes before it.
func Groups(n, branch int) []int { return groupSizes(n, branch) }

// Tiers is the bottom-up aggregator plan for n leaves: the node count of
// each successive aggregator tier, repeating until at most branch nodes
// face the root (the exact loop NewLocal builds, so in-process trees,
// daemon launch scripts and the coordinator's accept count all agree).
// Empty means the tree degenerates to a star. The root's direct-children
// count is the last entry (or n when empty).
func Tiers(n, branch int) []int {
	var tiers []int
	for n > branch {
		n = len(groupSizes(n, branch))
		tiers = append(tiers, n)
	}
	return tiers
}
