package rtlib

import (
	"fmt"

	"dkbms/internal/codegen"
	"dkbms/internal/db"
	"dkbms/internal/rel"
	"dkbms/internal/storage"
)

// TC is the specialized transitive-closure operator the paper's
// conclusions call for (items 6 and 8): a least-fixed-point computation
// executed inside the DBMS rather than as an application program over
// the SQL interface. It avoids every overhead the paper measures in
// Tests 5–6 — no temporary tables, no table copies, and a termination
// check that is a hash probe instead of a set difference.
//
// TC computes the transitive closure of the binary extensional relation
// of pred. A non-nil seed restricts the computation to pairs reachable
// from that single source value (the equivalent of the magic-restricted
// evaluation for a bound-first query), returning (seed, y) pairs.
func TC(d *db.DB, pred string, seed *rel.Value) ([]rel.Tuple, error) {
	t := d.Table(codegen.BaseTable(pred))
	if t == nil {
		return nil, fmt.Errorf("rtlib: no extensional relation for %s", pred)
	}
	if t.Schema.Len() != 2 {
		return nil, fmt.Errorf("rtlib: TC requires a binary relation; %s has %d columns", pred, t.Schema.Len())
	}
	// Build the adjacency map in one scan (a rel.Value is its own map
	// key: comparable, and equal exactly when type and payload are).
	adj := make(map[rel.Value][]rel.Value)
	if err := t.Scan(func(_ storage.RID, tu rel.Tuple) error {
		adj[tu[0]] = append(adj[tu[0]], tu[1])
		return nil
	}); err != nil {
		return nil, err
	}

	// reach is single-source reachability: a worklist over the
	// adjacency map (semi-naive at the tuple level).
	reach := func(from rel.Value) map[rel.Value]bool {
		seen := make(map[rel.Value]bool)
		stack := []rel.Value{from}
		for len(stack) > 0 {
			k := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, b := range adj[k] {
				if !seen[b] {
					seen[b] = true
					stack = append(stack, b)
				}
			}
		}
		return seen
	}

	if seed != nil {
		seen := reach(*seed)
		out := make([]rel.Tuple, 0, len(seen))
		for v := range seen {
			out = append(out, rel.Tuple{*seed, v})
		}
		return out, nil
	}
	// Full closure: one reachability pass per source node.
	var out []rel.Tuple
	for src := range adj {
		for v := range reach(src) {
			out = append(out, rel.Tuple{src, v})
		}
	}
	return out, nil
}
