package main

import (
	"bufio"
	"fmt"

	"github.com/tpset/tpset/internal/datagen"
	"github.com/tpset/tpset/internal/server"
)

// streamInputs generates the stream-scan relations at n tuples each: a
// Table III ovl-0.6 pair, and a Meteo-like relation with its Fig. 10
// shifted counterpart.
func streamInputs(n, facts, stations int, seed int64) []namedRel {
	r, s := datagen.FixedOverlapPair(n, facts, seed)
	m1 := renamed(datagen.Meteo(datagen.MeteoConfig{NumTuples: n, Stations: stations, Seed: seed + 2}), "m1")
	m2 := renamed(datagen.Shifted(m1, "n", seed+3), "m2")
	return []namedRel{{"r", r}, {"s", s}, {"m1", m1}, {"m2", m2}}
}

func runStream(c config) (*report, error) {
	w := c.spec.Workloads.Stream
	progress("generating inputs")
	rels := streamInputs(w.Tuples, w.Facts, w.Stations, c.seed)
	h, setups, err := setupLoad(c, rels, "sigma[Fact='f000000'](r) & sigma[Fact='f000000'](s)")
	if err != nil {
		return nil, err
	}
	defer h.close()
	queries := w.Queries
	rep := newReport()
	progress("references")
	refs := make([]expected, len(queries))
	bodies := make([][]byte, len(queries))
	for i, q := range queries {
		if refs[i], err = streamReference(h.srv, q); err != nil {
			return nil, fmt.Errorf("reference of %q: %w", q, err)
		}
		bodies[i] = queryBody(server.QueryRequest{Query: q})
	}
	if c.trace {
		return rep, traceStream(c, rep, h, queries, refs, setups)
	}
	rd := bufio.NewReaderSize(nil, 256<<10)
	loop := closedLoop(rep, c.seconds, queries, func(k int, ks *kindStats) (int, string, error) {
		ks.wantTup = refs[k].tuples
		o, err := h.stream(bodies[k], rd)
		if err != nil {
			return 0, "", err
		}
		if msg := checkStream(o, refs[k]); msg != "" {
			return 0, msg, nil
		}
		return o.got.tuples, "", nil
	})
	e2eClosed(rep, setups, loop)
	progress("replica check")
	replicaStream(rep, c.seed)
	return rep, nil
}

// replicaStream checks a down-scaled stream-scan against internal/ref.
// The Meteo-like replica's time points are rank-compressed: Meteo
// intervals span hundreds of thousands of time points, which the
// per-time-point reference cannot walk.
func replicaStream(rep *report, seed int64) {
	rels := streamInputs(400, 8, 4, seed+7)
	compressTime(rels[2].rel, rels[3].rel)
	ops := []string{"r & s", "r - s", "r | s", "m1 & m2", "m1 - m2", "m1 | m2"}
	n, bad := checkReplica(rels, ops)
	reportReplica(rep, n, bad)
}

func reportReplica(rep *report, n int, bad []string) {
	rep.attempted += n
	for _, b := range bad {
		rep.wrongf("%s", b)
	}
	rep.printf("replica checked against internal/ref: %d queries, %d wrong", n, len(bad))
}
