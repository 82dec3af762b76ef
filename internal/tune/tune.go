// Package tune holds the autotuner's persisted decision table: for each
// topology shape (machine.Config.TopoKey) and collective operation, an
// ordered list of size-threshold rules selecting the inter-node tree kind.
// The committed default table (default.json) is generated by the tuner in
// internal/exp (srmbench tune -json) over HierColonySP topologies and shipped
// via go:embed; srmcoll.Cluster dispatches through it by default, falling
// back to the paper's binomial tree for topologies the table does not name,
// so flat-topology runs are bit-identical with or without the table.
package tune

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"

	"srmcoll/internal/core"
	"srmcoll/internal/tree"
)

// Rule selects a tree — and, for allreduce, an algorithm family — for
// message sizes up to MaxBytes (inclusive); a negative MaxBytes means "and
// larger". Rules are ordered by MaxBytes with the open-ended rule last.
type Rule struct {
	MaxBytes int    `json:"max_bytes"`
	Tree     string `json:"tree"`
	Alg      string `json:"alg,omitempty"` // allreduce only: "auto"/"ring"/"rhd"/"dualroot"
}

// TopoEntry is the tuned selection for one topology shape.
type TopoEntry struct {
	Topo string            `json:"topo"`           // machine.Config.TopoKey()
	Ops  map[string][]Rule `json:"ops"`            // "bcast"/"reduce"/"allreduce" -> rules
	Note string            `json:"note,omitempty"` // provenance (grid, iterations)
}

// Table is a persisted decision table.
type Table struct {
	Comment string      `json:"comment,omitempty"`
	Entries []TopoEntry `json:"entries"`
}

//go:embed default.json
var defaultJSON []byte

// Default returns the committed default table. It panics if the embedded
// table does not parse or validate — a build artifact error, not a runtime
// condition.
func Default() *Table {
	t, err := Parse(defaultJSON)
	if err != nil {
		panic(fmt.Sprintf("tune: embedded default table: %v", err))
	}
	return t
}

// Parse decodes and validates a JSON decision table.
func Parse(data []byte) (*Table, error) {
	var t Table
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("tune: %v", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// Validate checks tree names, rule ordering, and topology-key uniqueness.
func (t *Table) Validate() error {
	seen := make(map[string]bool)
	for _, e := range t.Entries {
		if e.Topo == "" {
			return fmt.Errorf("tune: entry with empty topology key")
		}
		if seen[e.Topo] {
			return fmt.Errorf("tune: duplicate topology %q", e.Topo)
		}
		seen[e.Topo] = true
		for op, rules := range e.Ops {
			prev := -1
			for i, r := range rules {
				if _, err := tree.ParseKind(r.Tree); err != nil {
					return fmt.Errorf("tune: %s/%s: %v", e.Topo, op, err)
				}
				if _, err := core.ParseAlg(r.Alg); err != nil {
					return fmt.Errorf("tune: %s/%s: %v", e.Topo, op, err)
				}
				if r.Alg != "" && r.Alg != "auto" && op != "allreduce" {
					return fmt.Errorf("tune: %s/%s: algorithm %q only applies to allreduce", e.Topo, op, r.Alg)
				}
				if r.MaxBytes < 0 && i != len(rules)-1 {
					return fmt.Errorf("tune: %s/%s: open-ended rule before the end", e.Topo, op)
				}
				if r.MaxBytes >= 0 && r.MaxBytes <= prev {
					return fmt.Errorf("tune: %s/%s: rule thresholds not increasing", e.Topo, op)
				}
				prev = r.MaxBytes
			}
		}
	}
	return nil
}

// Topo returns the entry for a topology key, or nil if the table does not
// cover it (lookup is exact: the tuner keys shapes canonically).
func (t *Table) Topo(key string) *TopoEntry {
	for i := range t.Entries {
		if t.Entries[i].Topo == key {
			return &t.Entries[i]
		}
	}
	return nil
}

// Lookup resolves the tuned tree kind for one operation instance. ok is
// false when the entry has no rule covering the operation or size.
func (e *TopoEntry) Lookup(op string, size int) (tree.Kind, bool) {
	for _, r := range e.Ops[op] {
		if r.MaxBytes < 0 || size <= r.MaxBytes {
			k, err := tree.ParseKind(r.Tree)
			if err != nil {
				return 0, false // unreachable after Validate
			}
			return k, true
		}
	}
	return 0, false
}

// LookupAlg resolves the tuned allreduce algorithm family for one
// operation instance. ok is false when the entry has no rule covering the
// operation or size.
func (e *TopoEntry) LookupAlg(op string, size int) (core.Alg, bool) {
	for _, r := range e.Ops[op] {
		if r.MaxBytes < 0 || size <= r.MaxBytes {
			a, err := core.ParseAlg(r.Alg)
			if err != nil {
				return core.AlgAuto, false // unreachable after Validate
			}
			return a, true
		}
	}
	return core.AlgAuto, false
}

// Marshal serializes the table deterministically (sorted entries, stable
// map-key order courtesy of encoding/json, trailing newline) so tables
// generated at any -j compare byte-identical.
func (t *Table) Marshal() ([]byte, error) {
	sort.Slice(t.Entries, func(i, j int) bool { return t.Entries[i].Topo < t.Entries[j].Topo })
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
