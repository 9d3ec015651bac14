package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"time"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/datagen"
	"github.com/tpset/tpset/internal/engine"
	"github.com/tpset/tpset/internal/query"
	"github.com/tpset/tpset/internal/relation"
	"github.com/tpset/tpset/internal/server"
)

// The soa-vs-aos experiment quantifies the structure-of-arrays batch
// layout against the tuple-struct (array-of-structs) execution it
// replaces, on the same engine-stream data path as batch-vs-tuple:
//
//   - drain: the advancer's window compares, galloping skips and the
//     merge's frontier compares run over packed (Fid, Ts, Te) int64
//     columns instead of walking ~100 B tuple structs — fewer cache
//     lines touched per compare, branch-light inner loops;
//   - serve: the NDJSON encoder's read side pulls interval, probability
//     and lineage from the batch columns (EncodeBatchInto) instead of
//     the struct rows.
//
// Four pipelines run per point: aos (Options.NoSoA — scans alias no
// columns, the advancer reads keys through tuple structs: the pre-SoA
// stack), soa (the default columnar path), and serve-aos/serve-soa,
// which additionally encode every result tuple to NDJSON through the
// struct-read and column-read write paths respectively. All pipelines
// produce bit-identical streams (the cross-validation suite pins this);
// the CI gate holds soa to ≤ aos wall time on both the drain and serve
// sums, with a noise tolerance.

// soaPipeline is one measured drain of the engine stream.
type soaPipeline struct {
	name string
	opts core.Options
	// serve encodes every tuple to NDJSON. As in batch-vs-tuple, the
	// serve pipelines run the sequential plan (workers=1) so the
	// write-path delta is isolated from the partition-copy baseline.
	serve bool
}

func soaVsAoSPipelines() []soaPipeline {
	return []soaPipeline{
		{name: "aos", opts: core.Options{NoSoA: true}},
		{name: "soa", opts: core.Options{}},
		{name: "serve-aos", opts: core.Options{NoSoA: true}, serve: true},
		{name: "serve-soa", opts: core.Options{}, serve: true},
	}
}

// runSoAPipeline builds the engine stream plan, drains it through the
// pipeline's transport and returns the output cardinality and the sink
// write count.
func runSoAPipeline(p soaPipeline, workers int, node query.Node, db map[string]*relation.Relation) (int, int) {
	opts := p.opts
	opts.AssumeSorted = true // inputs pre-sorted, interned and column-built below
	if p.serve {
		workers = 1
	}
	cur, err := engine.New(engine.Config{Workers: workers}).Cursor(node, db, opts)
	if err != nil {
		panic(fmt.Sprintf("bench: soa-vs-aos: %v", err))
	}
	defer cur.Close()

	var cw countingWriter
	count := 0
	if p.serve {
		// The batched serve path over the exported codec: pooled
		// scratch, sized buffer, flush per batch boundary; the read side
		// is columnar exactly when the blocks carry columns. /query/stream
		// itself writes the same bytes through its reflection-free tuple
		// line writer, so this measures the json.Encoder write path.
		bw := bufio.NewWriterSize(&cw, 64<<10)
		enc := json.NewEncoder(bw)
		enc.SetEscapeHTML(false)
		var scratch server.TupleJSON
		probs := make(map[string]float64)
		b := core.GetBatch()
		for cur.NextBatch(b) {
			if b.HasCols() {
				for i := range b.Tuples {
					server.EncodeBatchInto(&scratch, b, i, probs)
					if err := enc.Encode(&scratch); err != nil {
						panic(err)
					}
				}
			} else {
				for i := range b.Tuples {
					server.EncodeTupleInto(&scratch, &b.Tuples[i], probs)
					if err := enc.Encode(&scratch); err != nil {
						panic(err)
					}
				}
			}
			count += len(b.Tuples)
		}
		core.PutBatch(b)
		if err := bw.Flush(); err != nil {
			panic(err)
		}
		return count, cw.writes
	}
	b := core.GetBatch()
	for cur.NextBatch(b) {
		count += len(b.Tuples)
	}
	core.PutBatch(b)
	return count, cw.writes
}

// SoAVsAoS sweeps the Table III overlapping-factor configurations plus
// a disjoint-fact point at fixed size and compares the four pipelines
// on a full engine-stream ∩Tp drain per point.
func SoAVsAoS(cfg Config) Result {
	n := cfg.scaled(1000000)
	facts := internFacts(n)
	workers := batchVsTupleWorkers(cfg)
	pipelines := soaVsAoSPipelines()

	series := make([]Series, len(pipelines))
	for i, p := range pipelines {
		series[i].Approach = p.name
	}

	type point struct {
		x     float64
		label string
		gen   func() (*relation.Relation, *relation.Relation)
	}
	var points []point
	for _, row := range datagen.TableIII {
		row := row
		points = append(points, point{
			x:     row.OverlapFactor,
			label: fmt.Sprintf("%g", row.OverlapFactor),
			gen: func() (*relation.Relation, *relation.Relation) {
				return datagen.Pair(datagen.PairConfig{
					NumTuples: n, NumFacts: facts,
					MaxLenR: row.MaxLenR, MaxLenS: row.MaxLenS,
					MaxGap: 3, Seed: cfg.Seed,
				})
			},
		})
	}
	points = append(points, point{
		x:     1, // past the overlap sweep on the x axis
		label: "disjoint",
		gen: func() (*relation.Relation, *relation.Relation) {
			return disjointPair(n, facts, cfg.Seed)
		},
	})

	node := query.MustParse("r & s")
	note := ""
	for _, pt := range points {
		r, s := pt.gen()
		r.Sort()
		s.Sort()
		// AssumeSorted plans take the leaves as handed in, so the SoA
		// pipelines need the columnar projections built here — exactly
		// what catalog admission does for served relations. The NoSoA
		// pipelines ignore them (DisableCols).
		r.BuildCols()
		s.BuildCols()
		db := map[string]*relation.Relation{"r": r, "s": s}

		for i, p := range pipelines {
			if over(series[i], cfg.Budget) {
				series[i].Cells = append(series[i].Cells, Cell{X: pt.x, Label: pt.label, Skipped: true})
				continue
			}
			// Best of three: single runs are noisy (GC pacing, scheduler)
			// relative to the layout deltas under measurement.
			const reps = 3
			var best Cell
			for rep := 0; rep < reps; rep++ {
				var out, writes int
				d, alloc, mallocs := measureAlloc(func() {
					out, writes = runSoAPipeline(p, workers, node, db)
				})
				if rep == 0 || d < best.Duration {
					best = Cell{
						X: pt.x, Label: pt.label, Duration: d, Output: out,
						AllocBytes: alloc, Mallocs: mallocs, Writes: writes,
					}
				}
			}
			series[i].Cells = append(series[i].Cells, best)
			if cfg.Progress != nil {
				fmt.Fprintf(cfg.Progress, "  %-10s %-9s %12s  %8.1fMB  %8d allocs  %6d writes  out=%d\n",
					p.name, pt.label, best.Duration.Round(time.Microsecond),
					mb(best.AllocBytes), best.Mallocs, best.Writes, best.Output)
			}
		}

		// Headline ratios: drain aos vs soa, serve aos vs soa.
		ac := series[0].Cells[len(series[0].Cells)-1]
		sc := series[1].Cells[len(series[1].Cells)-1]
		sa := series[2].Cells[len(series[2].Cells)-1]
		ss := series[3].Cells[len(series[3].Cells)-1]
		if !ac.Skipped && !sc.Skipped && sc.Duration > 0 {
			note += fmt.Sprintf("%s: drain %.2fx", pt.label,
				float64(ac.Duration)/float64(sc.Duration))
			if !sa.Skipped && !ss.Skipped && ss.Duration > 0 {
				note += fmt.Sprintf(" serve %.2fx", float64(sa.Duration)/float64(ss.Duration))
			}
			note += "; "
		}
	}

	return Result{
		Name:     "soa-vs-aos",
		Title:    "SoA (columnar) vs AoS (tuple-struct) batches: Table III overlap sweep + disjoint facts (∩Tp)",
		XLabel:   "ovl factor",
		Series:   series,
		Scale:    cfg.Scale,
		Footnote: fmt.Sprintf("%d tuples/relation, %d facts, workers=%d, best of 3; aos-vs-soa speedups: %s", n, facts, workers, note),
	}
}
