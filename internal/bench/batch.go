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

// The batch-vs-tuple experiment quantifies the two effects of the
// batched execution stack against the tuple-at-a-time one it replaces,
// on the engine's partition-parallel stream path (the /query/stream data
// path after catalog admission: plan build → shard sweep → k-way merge →
// drain, inputs pre-sorted and interned):
//
//   - vectorization: shard channels carrying *Batch instead of single
//     tuples (~1000x fewer channel operations and goroutine wakeups),
//     block pulls through the cursor tree, and — in the serve-shaped
//     pipelines — one pooled NDJSON encoder writing batches into a sized
//     buffer instead of one encode+write per tuple;
//   - run skipping: the advancer galloping past runs of facts the
//     operation discards, which turns disjoint-fact-heavy intersections
//     from O(n) pops into O(runs · log n).
//
// Five pipelines run per point: tuple (NoBatch+NoRunSkip: the
// pre-batching stack), batch-noskip (vectorization only), batch (both
// effects), and serve-tuple/serve-batch, which additionally encode every
// result tuple to NDJSON through the tuple-at-a-time and batched write
// paths respectively — the sink counts its writes, standing in for
// network write syscalls. Points are the Table III overlapping-factor
// shapes plus a disjoint-fact pair (the Shifted/Subset-like worst case
// for the sweep, the best case for skipping). All pipelines produce
// bit-identical streams (the cross-validation suite pins this); the
// experiment reports wall time, allocated bytes, allocation counts and
// sink writes, best of three.

// batchVsTupleWorkers resolves the worker budget of the experiment: at
// least two, so the engine actually builds the partition-parallel
// stream (shard goroutines + channels + merge) whose transport costs
// the experiment measures.
func batchVsTupleWorkers(cfg Config) int {
	if cfg.Workers > 2 {
		return cfg.Workers
	}
	return 2
}

// countingWriter is the stream sink: it discards the bytes but counts
// writes — each one a network write syscall in the real server.
type countingWriter struct {
	writes int
	bytes  int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	w.bytes += int64(len(p))
	return len(p), nil
}

// disjointPair generates a Table-III-shaped pair whose fact universes
// are disjoint (r holds f..., s holds g...), bound to one shared
// dictionary — the shape Shifted/Subset workloads and low-overlap
// catalogs produce, where ∩Tp discards every window.
func disjointPair(n, facts int, seed int64) (*relation.Relation, *relation.Relation) {
	r, s := datagen.Pair(datagen.PairConfig{
		NumTuples: n, NumFacts: facts,
		MaxLenR: 3, MaxLenS: 3, MaxGap: 3, Seed: seed,
	})
	out := relation.New(s.Schema)
	for i := range s.Tuples {
		t := s.Tuples[i]
		t.Fact = relation.NewFact("g" + t.Fact[0][1:])
		out.Add(relation.NewBase(t.Fact, fmt.Sprintf("s%d", i), t.T.Ts, t.T.Te, t.Prob))
	}
	relation.InternAll(r, out)
	return r, out
}

// batchPipeline is one measured drain of the engine stream.
type batchPipeline struct {
	name string
	opts core.Options
	// serve encodes every tuple to NDJSON (tuple- or batch-wise). The
	// serve pipelines run the sequential plan (workers=1): it is what
	// the service actually builds below the partitioning threshold, and
	// it isolates the write-path delta from the partition-copy baseline
	// the drain pipelines share.
	serve bool
}

func batchVsTuplePipelines() []batchPipeline {
	return []batchPipeline{
		{name: "tuple", opts: core.Options{NoBatch: true, NoRunSkip: true}},
		{name: "batch-noskip", opts: core.Options{NoRunSkip: true}},
		{name: "batch", opts: core.Options{}},
		{name: "serve-tuple", opts: core.Options{NoBatch: true, NoRunSkip: true}, serve: true},
		{name: "serve-batch", opts: core.Options{}, serve: true},
	}
}

// runBatchPipeline builds the engine stream plan, drains it through the
// pipeline's transport and returns the output cardinality and the sink
// write count.
func runBatchPipeline(p batchPipeline, workers int, node query.Node, db map[string]*relation.Relation) (int, int) {
	opts := p.opts
	opts.AssumeSorted = true // catalog admission sorted the inputs
	if p.serve {
		workers = 1
	}
	cur, err := engine.New(engine.Config{Workers: workers}).Cursor(node, db, opts)
	if err != nil {
		panic(fmt.Sprintf("bench: batch-vs-tuple: %v", err))
	}
	defer cur.Close()

	var cw countingWriter
	count := 0
	switch {
	case p.serve && p.opts.NoBatch:
		// The tuple-at-a-time serve path: one TupleJSON value boxed and
		// encoded — one sink write — per tuple.
		enc := json.NewEncoder(&cw)
		enc.SetEscapeHTML(false)
		for {
			t, ok := cur.Next()
			if !ok {
				break
			}
			if err := enc.Encode(server.EncodeTuple(&t)); err != nil {
				panic(err)
			}
			count++
		}
	case p.serve:
		// The batched serve path over the exported codec: pooled
		// scratch, sized buffer, flush per batch boundary. /query/stream
		// itself writes the same bytes through its reflection-free
		// tuple line writer, so this measures the json.Encoder write
		// path it replaced.
		bw := bufio.NewWriterSize(&cw, 64<<10)
		enc := json.NewEncoder(bw)
		enc.SetEscapeHTML(false)
		var scratch server.TupleJSON
		probs := make(map[string]float64)
		b := core.GetBatch()
		for cur.NextBatch(b) {
			for i := range b.Tuples {
				server.EncodeTupleInto(&scratch, &b.Tuples[i], probs)
				if err := enc.Encode(&scratch); err != nil {
					panic(err)
				}
			}
			count += len(b.Tuples)
		}
		core.PutBatch(b)
		if err := bw.Flush(); err != nil {
			panic(err)
		}
	case p.opts.NoBatch:
		for {
			_, ok := cur.Next()
			if !ok {
				break
			}
			count++
		}
	default:
		b := core.GetBatch()
		for cur.NextBatch(b) {
			count += len(b.Tuples)
		}
		core.PutBatch(b)
	}
	return count, cw.writes
}

// BatchVsTuple sweeps the Table III overlapping-factor configurations
// plus a disjoint-fact point at fixed size and compares the five
// pipelines on a full engine-stream ∩Tp drain per point.
func BatchVsTuple(cfg Config) Result {
	n := cfg.scaled(1000000)
	facts := internFacts(n)
	workers := batchVsTupleWorkers(cfg)
	pipelines := batchVsTuplePipelines()

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
		db := map[string]*relation.Relation{"r": r, "s": s}

		for i, p := range pipelines {
			if over(series[i], cfg.Budget) {
				series[i].Cells = append(series[i].Cells, Cell{X: pt.x, Label: pt.label, Skipped: true})
				continue
			}
			// Best of three: single runs are noisy (GC pacing, scheduler)
			// relative to the transport deltas under measurement.
			const reps = 3
			var best Cell
			for rep := 0; rep < reps; rep++ {
				var out, writes int
				d, alloc, mallocs := measureAlloc(func() {
					out, writes = runBatchPipeline(p, workers, node, db)
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
				fmt.Fprintf(cfg.Progress, "  %-12s %-9s %12s  %8.1fMB  %8d allocs  %6d writes  out=%d\n",
					p.name, pt.label, best.Duration.Round(time.Microsecond),
					mb(best.AllocBytes), best.Mallocs, best.Writes, best.Output)
			}
		}

		// Headline ratios: engine drain tuple vs batch, serve pipelines
		// tuple vs batch (wall, alloc bytes, allocation count, writes).
		tc := series[0].Cells[len(series[0].Cells)-1]
		bc := series[2].Cells[len(series[2].Cells)-1]
		st := series[3].Cells[len(series[3].Cells)-1]
		sb := series[4].Cells[len(series[4].Cells)-1]
		if !tc.Skipped && !bc.Skipped && bc.Duration > 0 {
			note += fmt.Sprintf("%s: drain %.2fx faster", pt.label,
				float64(tc.Duration)/float64(bc.Duration))
			if !st.Skipped && !sb.Skipped && sb.Duration > 0 && sb.AllocBytes > 0 && sb.Mallocs > 0 && sb.Writes > 0 {
				note += fmt.Sprintf(", serve %.2fx faster %.2fx less alloc %.1fx fewer allocs %.0fx fewer writes",
					float64(st.Duration)/float64(sb.Duration),
					float64(st.AllocBytes)/float64(sb.AllocBytes),
					float64(st.Mallocs)/float64(sb.Mallocs),
					float64(st.Writes)/float64(sb.Writes))
			}
			note += "; "
		}
	}

	return Result{
		Name:     "batch-vs-tuple",
		Title:    "batched vs tuple-at-a-time engine stream: Table III overlap sweep + disjoint facts (∩Tp)",
		XLabel:   "ovl factor",
		Series:   series,
		Scale:    cfg.Scale,
		Footnote: fmt.Sprintf("%d tuples/relation, %d facts, workers=%d, best of 3; batched-vs-tuple: %s", n, facts, workers, note),
	}
}
