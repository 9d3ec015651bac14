package main

import (
	"fmt"
	"net/http"

	"github.com/tpset/tpset/internal/relation"
	"github.com/tpset/tpset/internal/server"
)

// repeatingPlaceholder stands for the generated repeating query in the
// sparse-compute query list of spec.json.
const repeatingPlaceholder = "REPEATING"

// sparseInputs generates four Table III ovl-0.03 relations (r and c with
// MaxLen 100, s and d with MaxLen 3) on one shared dictionary, plus the
// relations of the repeating query, and returns the query list with the
// placeholder replaced.
func sparseInputs(n, facts, k, repFacts int, seed int64, queries []string) ([]namedRel, []string) {
	r := synthetic("r", n, facts, 100, seed)
	s := synthetic("s", n, facts, 3, seed+1)
	c := synthetic("c", n, facts, 100, seed+2)
	d := synthetic("d", n, facts, 3, seed+3)
	relation.InternAll(r, s, c, d)
	rels := []namedRel{{"r", r}, {"s", s}, {"c", c}, {"d", d}}
	xs, rq := repeating(k, repFacts, seed+4)
	rels = append(rels, xs...)
	out := make([]string, len(queries))
	for i, q := range queries {
		if q == repeatingPlaceholder {
			q = rq
		}
		out[i] = q
	}
	return rels, out
}

func runSparse(c config) (*report, error) {
	w := c.spec.Workloads.Sparse
	progress("generating inputs")
	rels, queries := sparseInputs(w.Tuples, w.Facts, w.RepeatingK, w.RepeatingFacts, c.seed, w.Queries)
	h, setups, err := setupLoad(c, rels, "sigma[Fact='f000000'](r) & sigma[Fact='f000000'](s)")
	if err != nil {
		return nil, err
	}
	defer h.close()
	rep := newReport()
	progress("references")
	refs := make([]expected, len(queries))
	bodies := make([][]byte, len(queries))
	for i, q := range queries {
		if refs[i], err = resultReference(h.srv, q); err != nil {
			return nil, fmt.Errorf("reference of %q: %w", q, err)
		}
		bodies[i] = queryBody(server.QueryRequest{Query: q, NoCache: true})
	}
	if c.trace {
		return rep, traceSparse(c, rep, h, queries, refs, setups)
	}
	loop := closedLoop(rep, c.seconds, queries, func(k int, ks *kindStats) (int, string, error) {
		ks.wantTup = refs[k].tuples
		status, body, err := h.do(http.MethodPost, "/query", bodies[k])
		if wrong, failure := outcome(status, err, http.StatusOK); wrong != "" || failure != nil {
			return 0, wrong, failure
		}
		if msg := checkReply(status, body, refs[k]); msg != "" {
			return 0, msg, nil
		}
		return refs[k].tuples, "", nil
	})
	e2eClosed(rep, setups, loop)
	progress("replica check")
	replicaSparse(rep, c)
	return rep, nil
}

// replicaSparse checks a down-scaled sparse-compute against internal/ref,
// the repeating query at full k (its lineage stays within the 20
// variables possible-worlds enumeration can check).
func replicaSparse(rep *report, c config) {
	w := c.spec.Workloads.Sparse
	rels, queries := sparseInputs(300, 6, w.RepeatingK, 3, c.seed+7, w.Queries)
	n, bad := checkReplica(rels, queries)
	reportReplica(rep, n, bad)
}
