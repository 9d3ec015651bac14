package main

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/tpset/tpset/internal/datagen"
	"github.com/tpset/tpset/internal/interval"
	"github.com/tpset/tpset/internal/relation"
)

// namedRel is a generated input relation and the catalog name it is
// loaded under.
type namedRel struct {
	name string
	rel  *relation.Relation
}

// synthetic draws one §VII-B relation whose schema name, catalog name and
// lineage-variable prefix are all name.
func synthetic(name string, n, facts int, maxLen int64, seed int64) *relation.Relation {
	return datagen.Synthetic(datagen.SyntheticConfig{
		Name: name, NumTuples: n, NumFacts: facts, MaxLen: maxLen, MaxGap: 3, Seed: seed,
	})
}

// renamed returns a copy of r whose schema carries name (catalog and
// segment names must match the schema name on durable admission).
func renamed(r *relation.Relation, name string) *relation.Relation {
	c := r.Clone()
	c.Schema.Name = name
	return c
}

// repeating builds the relations x0..xk of the repeating query
// (x0|…|xk) - (x1&…&xk&x0): every relation holds one tuple per fact over
// the same interval, so each output tuple's lineage carries all k+1
// variables twice and its valuation needs Shannon expansion over k+1
// shared variables (§V-B).
func repeating(k, facts int, seed int64) ([]namedRel, string) {
	rng := rand.New(rand.NewSource(seed))
	rels := make([]namedRel, 0, k+1)
	for i := 0; i <= k; i++ {
		name := fmt.Sprintf("x%d", i)
		r := relation.New(relation.NewSchema(name, "Fact"))
		for f := 0; f < facts; f++ {
			ts := interval.Time(10 * f)
			r.AddBase(relation.NewFact(fmt.Sprintf("f%06d", f)), fmt.Sprintf("x%dq%d", i, f), ts, ts+5, 0.1+0.8*rng.Float64())
		}
		rels = append(rels, namedRel{name, r})
	}
	q := "("
	for i := 0; i <= k; i++ {
		if i > 0 {
			q += " | "
		}
		q += fmt.Sprintf("x%d", i)
	}
	q += ") - ("
	for i := 1; i <= k; i++ {
		q += fmt.Sprintf("x%d & ", i)
	}
	q += "x0)"
	return rels, q
}

// cloneAll copies the relations so a set-up can admit them without
// touching the generated originals (admission interns, sorts and binds
// in place).
func cloneAll(in []namedRel) []namedRel {
	out := make([]namedRel, len(in))
	for i, nr := range in {
		out[i] = namedRel{nr.name, nr.rel.Clone()}
	}
	return out
}

// compressTime maps every endpoint of the relations to its rank among
// all endpoints. The map is order-preserving, so every set operation
// over the compressed relations has the compressed result of the
// original — it keeps the overlap shape while shrinking the time domain
// the per-time-point reference (internal/ref) has to walk.
func compressTime(rels ...*relation.Relation) {
	var pts []interval.Time
	for _, r := range rels {
		for i := range r.Tuples {
			pts = append(pts, r.Tuples[i].T.Ts, r.Tuples[i].T.Te)
		}
	}
	rank := make(map[interval.Time]interval.Time, len(pts))
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	for _, p := range pts {
		if _, ok := rank[p]; !ok {
			rank[p] = interval.Time(len(rank))
		}
	}
	for _, r := range rels {
		for i := range r.Tuples {
			t := &r.Tuples[i]
			t.T = interval.New(rank[t.T.Ts], rank[t.T.Te])
		}
	}
}
