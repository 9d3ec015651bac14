package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/engine"
	"github.com/tpset/tpset/internal/lineage"
	"github.com/tpset/tpset/internal/obs"
	"github.com/tpset/tpset/internal/query"
	"github.com/tpset/tpset/internal/relation"
	"github.com/tpset/tpset/internal/server"
)

// The traced run. End-to-end metrics come from untraced runs; this run
// gives the per-layer numbers. It drives the workload over HTTP for a
// shorter phase with client-side request spans, reads the server's own
// counters (GET /metrics) and Trace:true span stats, and then replays
// each request kind in the benchmark's own code by calling the layers'
// public functions in handler order:
//
//	query.Parse → PushDownSelections → Canonical/Classify → catalog
//	snapshot → engine.CursorCtx → NextBatch drain (LazyProb) →
//	(*lineage.Expr).Prob per tuple → server.EncodeBatchInto/EncodeTupleInto
//	+ json.Encoder
//
// No program code is changed: every layer is timed from outside, around
// its public entry point. Spans carry name, start, end, parent and
// request id; they are kept in memory, written to
// .bench_build/spans-<workload>-<seed>.jsonl at the end and reduced to
// each layer's self time (span duration minus the part its children
// cover).

// span is one timed interval of the traced run.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans; safe for the two open-loop client goroutines.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	req   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newReq() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.req++
	return t.req
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, req int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// dur is the length of a closed span.
func (t *tracer) dur(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return time.Duration(t.spans[id-1].End - t.spans[id-1].Start)
}

// timed runs f inside a span.
func (t *tracer) timed(name string, parent, req int, f func()) {
	id := t.begin(name, parent, req)
	f()
	t.end(id)
}

// layerTotal is one row of the self-time table.
type layerTotal struct {
	name  string
	self  time.Duration
	count int
}

// selfTimes reduces the spans to per-name self time: a span's duration
// minus the part of it its children cover (children of one parent never
// overlap in this benchmark: each request is replayed on one goroutine).
func (t *tracer) selfTimes() map[string]*layerTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*layerTotal{}
	for _, s := range t.spans {
		lt, ok := out[s.Name]
		if !ok {
			lt = &layerTotal{name: s.Name}
			out[s.Name] = lt
		}
		self := s.End - s.Start - child[s.ID]
		if self < 0 {
			self = 0
		}
		lt.self += time.Duration(self)
		lt.count++
	}
	return out
}

// write keeps the spans under .bench_build for offline inspection.
func (t *tracer) write(c config) error {
	path := filepath.Join(c.scratchDir(), fmt.Sprintf("spans-%s-%d.jsonl", c.workload, c.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// offPath are replay spans that are not on a request's path: lineage
// rendering is timed on its own although the encoder renders again, and
// bench.inspect is the benchmark's own bookkeeping.
var offPath = map[string]bool{"lineage.string": true, "bench.inspect": true}

// table prints each layer's self time per replayed request, with its
// share of reqMS, the mean measured HTTP time of the replayed request
// mix. The phases plus the residual row account for the whole request:
// the residual is the time the replay does not cover (HTTP, socket
// write, client read). It returns the residual share; reqMS 0 prints
// shares of the replayed time instead and returns 0.
func (t *tracer) table(rep *report, title string, reqMS float64) float64 {
	totals := t.selfTimes()
	var names []string
	var onPath time.Duration
	replayed := 0
	for n, lt := range totals {
		switch {
		case strings.HasPrefix(n, "client."):
			continue
		case n == "replay.request":
			replayed = lt.count
		}
		names = append(names, n)
		if !offPath[n] {
			onPath += lt.self
		}
	}
	if replayed == 0 {
		return 0
	}
	perReq := ms(onPath) / float64(replayed)
	base := reqMS
	if base == 0 {
		base = perReq
	}
	sort.Slice(names, func(i, j int) bool { return totals[names[i]].self > totals[names[j]].self })
	rep.printf("traced self time per request (%s; %d replayed requests, measured request %.3f ms):", title, replayed, reqMS)
	rep.printf("  %-28s %12s %8s %8s", "span", "self ms/req", "share", "spans")
	for _, n := range names {
		lt := totals[n]
		self := ms(lt.self) / float64(replayed)
		mark := ""
		if offPath[n] {
			mark = "  (off path)"
		}
		rep.printf("  %-28s %12.3f %7.1f%% %8d%s", n, self, 100*self/base, lt.count, mark)
	}
	if reqMS == 0 {
		return 0
	}
	residual := 1 - perReq/reqMS
	rep.printf("  %-28s %12.3f %7.1f%%", "server.http_residual", reqMS-perReq, 100*residual)
	return residual
}

// countingDiscard counts the bytes the replayed encoder writes.
type countingDiscard struct{ n int64 }

func (w *countingDiscard) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// replayStats accumulates the replay of one request kind.
type replayStats struct {
	tuples      int64
	nodes       int64
	oneOF       int64 // tuples valued by the 1OF rules
	sharedMax   int
	wire        int64
	phases      time.Duration // sum of the replayed layer spans
	prepare     time.Duration
	build       time.Duration
	drain       time.Duration
	prob1OF     time.Duration
	probShannon time.Duration
	str         time.Duration
	encode      time.Duration
}

// sharedVars counts the variables occurring more than once in e.
func sharedVars(e *lineage.Expr) int {
	counts := map[string]int{}
	var walk func(*lineage.Expr)
	walk = func(x *lineage.Expr) {
		if x == nil {
			return
		}
		if x.Kind() == lineage.KindVar {
			counts[x.ID()]++
			return
		}
		l, r := x.Operands()
		walk(l)
		walk(r)
	}
	walk(e)
	n := 0
	for _, c := range counts {
		if c > 1 {
			n++
		}
	}
	return n
}

// replayRequest replays one request kind in handler order against cat
// with the given worker budget, accumulating into st.
func replayRequest(t *tracer, cat *server.Catalog, q string, workers int, st *replayStats) error {
	req := t.newReq()
	root := t.begin("replay.request", 0, req)
	defer t.end(root)
	var n query.Node
	var err error
	var db map[string]*relation.Relation
	prep := time.Now()
	t.timed("query.parse", root, req, func() { n, err = query.Parse(q) })
	if err != nil {
		return err
	}
	t.timed("query.rewrite", root, req, func() { n = query.PushDownSelections(n) })
	t.timed("query.canonical", root, req, func() {
		_ = query.Canonical(n)
		_ = query.Classify(n)
	})
	t.timed("server.snapshot", root, req, func() { db, _, err = cat.Snapshot(query.Relations(n)) })
	if err != nil {
		return err
	}
	st.prepare += time.Since(prep)
	var cur *engine.StreamCursor
	t0 := time.Now()
	t.timed("engine.build", root, req, func() {
		cur, err = engine.New(engine.Config{Workers: workers}).CursorCtx(context.Background(), n, db,
			core.Options{AssumeSorted: true, LazyProb: true})
	})
	if err != nil {
		return err
	}
	st.build += time.Since(t0)
	cw := &countingDiscard{}
	bw := bufio.NewWriterSize(cw, 64<<10)
	enc := json.NewEncoder(bw)
	enc.SetEscapeHTML(false)
	var tj server.TupleJSON
	probs := map[string]float64{}
	b := core.NewBatch(core.BatchSize)
	for {
		var ok bool
		t0 = time.Now()
		t.timed("engine.drain", root, req, func() { ok = cur.NextBatch(b) })
		st.drain += time.Since(t0)
		if !ok {
			break
		}
		cols := b.HasCols()
		lam := func(i int) *lineage.Expr {
			if cols {
				return b.Lam[i]
			}
			return b.Tuples[i].Lineage
		}
		setProb := func(i int, p float64) {
			b.Tuples[i].Prob = p
			if cols {
				b.Prob[i] = p
			}
		}
		t0 = time.Now()
		t.timed("lineage.prob_1of", root, req, func() {
			for i := range b.Tuples {
				if l := lam(i); l.IsOneOccurrence() {
					setProb(i, l.Prob())
				}
			}
		})
		st.prob1OF += time.Since(t0)
		t0 = time.Now()
		t.timed("lineage.prob_shannon", root, req, func() {
			for i := range b.Tuples {
				if l := lam(i); !l.IsOneOccurrence() {
					setProb(i, l.Prob())
				}
			}
		})
		st.probShannon += time.Since(t0)
		t0 = time.Now()
		t.timed("lineage.string", root, req, func() {
			for i := range b.Tuples {
				_ = lam(i).String()
			}
		})
		st.str += time.Since(t0)
		t0 = time.Now()
		t.timed("server.encode", root, req, func() {
			for i := range b.Tuples {
				if cols {
					server.EncodeBatchInto(&tj, b, i, probs)
				} else {
					server.EncodeTupleInto(&tj, &b.Tuples[i], probs)
				}
				if err = enc.Encode(&tj); err != nil {
					return
				}
			}
			err = bw.Flush()
		})
		st.encode += time.Since(t0)
		if err != nil {
			return err
		}
		t.timed("bench.inspect", root, req, func() {
			for i := range b.Tuples {
				l := lam(i)
				st.nodes += int64(l.Size())
				if l.IsOneOccurrence() {
					st.oneOF++
				} else if sv := sharedVars(l); sv > st.sharedMax {
					st.sharedMax = sv
				}
			}
		})
		st.tuples += int64(len(b.Tuples))
	}
	t.timed("engine.drain", root, req, cur.Close)
	st.wire += cw.n
	return nil
}

// replayPhases is the replayed time of the layers a request passes.
func (st *replayStats) replayPhases() time.Duration {
	return st.prepare + st.build + st.drain + st.prob1OF + st.probShannon + st.encode
}

// drainTime drains q with eager valuation (the handler's options) at the
// given worker budget and returns the wall time.
func drainTime(cat *server.Catalog, q string, workers int) (time.Duration, error) {
	n, err := query.Parse(q)
	if err != nil {
		return 0, err
	}
	n = query.PushDownSelections(n)
	db, _, err := cat.Snapshot(query.Relations(n))
	if err != nil {
		return 0, err
	}
	start := time.Now()
	cur, err := engine.New(engine.Config{Workers: workers}).CursorCtx(context.Background(), n, db,
		core.Options{AssumeSorted: true})
	if err != nil {
		return 0, err
	}
	b := core.GetBatch()
	for cur.NextBatch(b) {
	}
	core.PutBatch(b)
	cur.Close()
	return time.Since(start), nil
}

// admission times the relation layer's admission steps on copies of
// rels, in the order server.Load runs them, and admits the copies into a
// fresh catalog for the replay. Times are per 100K admitted tuples.
func admission(rep *report, rels []namedRel) *server.Catalog {
	cat := server.NewCatalog()
	var intern, validate, sorting, cols time.Duration
	tuples := 0
	for _, nr := range cloneAll(rels) {
		r := nr.rel
		r.Schema.Name = nr.name
		t0 := time.Now()
		r.Intern()
		intern += time.Since(t0)
		t0 = time.Now()
		if err := r.ValidateDuplicateFree(); err != nil {
			rep.wrongf("admission replay of %s: %v", nr.name, err)
		}
		validate += time.Since(t0)
		t0 = time.Now()
		r.Sort()
		sorting += time.Since(t0)
		t0 = time.Now()
		r.BuildCols()
		cols += time.Since(t0)
		tuples += r.Len()
		cat.Put(nr.name, r)
	}
	per := 1e5 / float64(tuples)
	rep.set("relation.intern_ms", ms(intern)*per, "ms")
	rep.set("relation.validate_ms", ms(validate)*per, "ms")
	rep.set("relation.sort_ms", ms(sorting)*per, "ms")
	rep.set("relation.buildcols_ms", ms(cols)*per, "ms")
	return cat
}

// spanCounters sums the server's own Trace:true span stats.
type spanCounters struct {
	windows, gallops, stallUS int64
	selectUS                  int64 // σ wall, inclusive of its scan
	selectOut, scanOut        int64
}

func (sc *spanCounters) add(st *obs.SpanStats) {
	if st == nil {
		return
	}
	sc.windows += st.Windows
	sc.gallops += st.Gallops
	sc.stallUS += st.StallMicros
	switch {
	case strings.Contains(st.Op, "σ["):
		sc.selectUS += st.WallMicros
		sc.selectOut += st.TuplesOut
	case strings.Contains(st.Op, "scan("):
		sc.scanOut += st.TuplesOut
	}
	for _, c := range st.Children {
		sc.add(c)
	}
}

// serverDelta sets the server-counter metrics of a phase from GET
// /metrics read before and after it.
func serverDelta(rep *report, before, after server.Metrics) {
	hits := after.Cache.Hits - before.Cache.Hits
	misses := after.Cache.Misses - before.Cache.Misses
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	rep.set("server.cache_hit_ratio", ratio, "ratio")
	rep.set("server.cache_lookups", float64(hits+misses), "count")
	rep.set("server.cache_evictions", float64(after.Cache.Evictions-before.Cache.Evictions), "count")
	rep.set("server.cache_invalidations", float64(after.Cache.Invalidations-before.Cache.Invalidations), "count")
	rep.set("server.queries_shed", float64(after.QueriesShed-before.QueriesShed), "count")
	rep.set("server.queries_timed_out", float64(after.QueriesTimedOut-before.QueriesTimedOut), "count")
	gets := after.BatchPool.Gets - before.BatchPool.Gets
	frac := 0.0
	if gets > 0 {
		frac = float64(after.BatchPool.Misses-before.BatchPool.Misses) / float64(gets)
	}
	rep.set("core.batch_new_frac", frac, "ratio")
}

// runtimeLayer sets the Go runtime metrics of a phase.
func runtimeLayer(rep *report, p *phaseStats, tuples int64, requests int) {
	rep.set("runtime.gc_cpu_frac", p.gcCPUFrac(), "ratio")
	perTuple := 0.0
	if tuples > 0 {
		perTuple = p.allocBytes() / float64(tuples)
	}
	rep.set("runtime.alloc_bytes_per_tuple", perTuple, "B")
	rep.set("runtime.alloc_bytes_per_query", p.allocBytes()/float64(max(requests, 1)), "B")
	rep.set("runtime.cpu_util", p.cpuUtil(), "ratio")
}

// layerMetrics are the per-layer metrics of BENCHMARK.json with their
// units, in its order. Every traced run prints all of them; a layer a
// workload bypasses reads 0 (spec.json names the bypassed layers).
var layerMetrics = []struct{ name, unit string }{
	{"server.encode_ns_per_tuple", "ns"},
	{"server.wire_bytes_per_tuple", "B"},
	{"server.http_residual_frac", "ratio"},
	{"server.ttft_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.cache_lookups", "count"},
	{"server.cache_evictions", "count"},
	{"server.cache_invalidations", "count"},
	{"server.queries_shed", "count"},
	{"server.queries_timed_out", "count"},
	{"query.prepare_us", "us"},
	{"query.select_ms", "ms"},
	{"query.select_rows_examined_per_row", "ratio"},
	{"engine.build_us", "us"},
	{"engine.drain_ns_per_tuple", "ns"},
	{"engine.parallel_speedup", "ratio"},
	{"core.windows", "count"},
	{"core.gallops", "count"},
	{"core.stall_ms", "ms"},
	{"core.batch_new_frac", "ratio"},
	{"lineage.prob_1of_ns_per_tuple", "ns"},
	{"lineage.string_ns_per_tuple", "ns"},
	{"lineage.nodes_per_tuple", "count"},
	{"lineage.prob_shannon_ms", "ms"},
	{"lineage.shared_vars_max", "count"},
	{"relation.intern_ms", "ms"},
	{"relation.validate_ms", "ms"},
	{"relation.sort_ms", "ms"},
	{"relation.buildcols_ms", "ms"},
	{"segment.put_ms", "ms"},
	{"segment.wal_bytes_per_user_byte", "ratio"},
	{"segment.open_ms", "ms"},
	{"segment.restore_ms", "ms"},
	{"segment.bytes_per_tuple", "B"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.alloc_bytes_per_tuple", "B"},
	{"runtime.alloc_bytes_per_query", "B"},
	{"runtime.cpu_util", "ratio"},
	{"loadgen.sent", "count"},
	{"loadgen.ok", "count"},
	{"loadgen.failed", "count"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// finishLayers sets every per-layer metric the run did not measure to 0
// and puts each metric in its declared unit.
func finishLayers(rep *report) {
	for _, m := range layerMetrics {
		v := rep.metrics[m.name]
		rep.set(m.name, v.Value, m.unit)
	}
}

// kindReplay replays every query kind reps times, sets the replay-
// derived layer metrics and prints the self-time table; httpMS holds each
// kind's median HTTP latency.
func kindReplay(rep *report, t *tracer, cat *server.Catalog, queries []string, httpMS []float64, reps int, title string) error {
	workers := runtime.GOMAXPROCS(0)
	all := make([]replayStats, len(queries))
	var tot replayStats
	var requestMS float64
	for k, q := range queries {
		var med []float64
		for i := 0; i < reps; i++ {
			var st replayStats
			if err := replayRequest(t, cat, q, workers, &st); err != nil {
				return fmt.Errorf("replaying %q: %w", q, err)
			}
			med = append(med, ms(st.replayPhases()))
			all[k] = st
			addStats(&tot, &st)
		}
		requestMS += httpMS[k]
		rep.printf("  replay %-40q tuples=%-7d phases=%8.2f ms  http=%8.2f ms", q, all[k].tuples, median(med), httpMS[k])
	}
	perTuple := func(d time.Duration) float64 {
		if tot.tuples == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(tot.tuples)
	}
	nReq := float64(len(queries) * reps)
	rep.set("query.prepare_us", float64(tot.prepare.Microseconds())/nReq, "us")
	rep.set("engine.build_us", float64(tot.build.Microseconds())/nReq, "us")
	rep.set("engine.drain_ns_per_tuple", perTuple(tot.drain), "ns")
	rep.set("server.encode_ns_per_tuple", perTuple(tot.encode), "ns")
	rep.set("lineage.string_ns_per_tuple", perTuple(tot.str), "ns")
	rep.set("server.wire_bytes_per_tuple", safeDiv(float64(tot.wire), float64(tot.tuples)), "B")
	rep.set("lineage.nodes_per_tuple", safeDiv(float64(tot.nodes), float64(tot.tuples)), "count")
	rep.set("lineage.prob_1of_ns_per_tuple", safeDiv(float64(tot.prob1OF.Nanoseconds()), float64(tot.oneOF)), "ns")
	shannonQueries := 0
	for k := range all {
		if all[k].tuples > all[k].oneOF {
			shannonQueries++
		}
	}
	rep.set("lineage.prob_shannon_ms", safeDiv(ms(tot.probShannon), float64(shannonQueries*reps)), "ms")
	rep.set("lineage.shared_vars_max", float64(tot.sharedMax), "count")
	rep.set("server.http_residual_frac", t.table(rep, title, requestMS/float64(len(queries))), "ratio")
	return nil
}

func addStats(tot, st *replayStats) {
	tot.tuples += st.tuples
	tot.nodes += st.nodes
	tot.oneOF += st.oneOF
	tot.sharedMax = max(tot.sharedMax, st.sharedMax)
	tot.wire += st.wire
	tot.prepare += st.prepare
	tot.build += st.build
	tot.drain += st.drain
	tot.prob1OF += st.prob1OF
	tot.probShannon += st.probShannon
	tot.str += st.str
	tot.encode += st.encode
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// parallelSpeedup is the eager drain time at one worker over the drain
// time at GOMAXPROCS, summed over the query kinds.
func parallelSpeedup(rep *report, cat *server.Catalog, queries []string) error {
	var one, many time.Duration
	for _, q := range queries {
		d1, err := drainTime(cat, q, 1)
		if err != nil {
			return err
		}
		dn, err := drainTime(cat, q, runtime.GOMAXPROCS(0))
		if err != nil {
			return err
		}
		one += d1
		many += dn
		rep.printf("  drain %-40q workers=1 %9.2f ms  workers=%d %9.2f ms", q, ms(d1), runtime.GOMAXPROCS(0), ms(dn))
	}
	rep.set("engine.parallel_speedup", safeDiv(float64(one), float64(many)), "ratio")
	return nil
}

// tracedClosed runs the closed loop of a traced run: each rotation is
// sent twice, once plain and once with Trace:true, so the server's span
// stats and the tracing overhead come from the same phase. It returns
// each kind's median plain latency, the phase, and the tuples and
// requests it carried.
func tracedClosed(c config, rep *report, t *tracer, queries []string, send func(k int, traced bool) (int, time.Duration, *obs.SpanStats, string, error)) ([]float64, *phaseStats, int64, int) {
	plain := make([][]float64, len(queries))
	traced := make([][]float64, len(queries))
	sc := &spanCounters{}
	var ttft []float64
	var tuples int64
	requests := 0
	p := startPhase()
	deadline := p.start.Add(time.Duration(c.seconds / 2 * float64(time.Second)))
	for round := 0; round < 2 || time.Now().Before(deadline); round++ {
		for _, tr := range []bool{false, true} {
			for k := range queries {
				req := t.newReq()
				name := "client.request"
				if tr {
					name = "client.request_traced"
				}
				id := t.begin(name, 0, req)
				rep.attempted++
				requests++
				n, first, stats, wrong, err := send(k, tr)
				t.end(id)
				d := t.dur(id)
				switch {
				case err != nil:
					rep.failed++
					rep.printf("traced request failed: %v", err)
					continue
				case wrong != "":
					rep.wrongf("%s: %s", queries[k], wrong)
					continue
				}
				tuples += int64(n)
				if tr {
					traced[k] = append(traced[k], ms(d))
					if round == 0 {
						sc.add(stats)
					}
				} else {
					plain[k] = append(plain[k], ms(d))
					if first > 0 {
						ttft = append(ttft, ms(first))
					}
				}
			}
		}
	}
	p.finish()
	med := make([]float64, len(queries))
	var sumPlain, sumTraced float64
	for k := range queries {
		med[k] = median(plain[k])
		sumPlain += med[k]
		sumTraced += median(traced[k])
	}
	rep.set("trace.overhead_frac", safeDiv(sumTraced, sumPlain)-1, "ratio")
	rep.set("server.ttft_ms", orZero(median(ttft)), "ms")
	n := float64(len(queries))
	rep.set("core.windows", float64(sc.windows)/n, "count")
	rep.set("core.gallops", float64(sc.gallops)/n, "count")
	rep.set("core.stall_ms", float64(sc.stallUS)/1000/n, "ms")
	return med, p, tuples, requests
}

func orZero(v float64) float64 {
	if v != v { // NaN: no samples
		return 0
	}
	return v
}

// closedLoadgen sets the load-generator metrics of a closed loop, which
// has no schedule to fall behind.
func closedLoadgen(rep *report) {
	rep.set("loadgen.sent", float64(rep.attempted), "count")
	rep.set("loadgen.ok", float64(rep.attempted-rep.failed), "count")
	rep.set("loadgen.failed", float64(rep.failed), "count")
	rep.set("loadgen.late_p99_ms", 0, "ms")
}

func traceStream(c config, rep *report, h *harness, queries []string, refs []expected, setups setupTimes) error {
	t := newTracer()
	rd := bufio.NewReaderSize(nil, 256<<10)
	before, err := h.serverMetrics()
	if err != nil {
		return err
	}
	httpMS, p, tuples, requests := tracedClosed(c, rep, t, queries, func(k int, tr bool) (int, time.Duration, *obs.SpanStats, string, error) {
		o, err := h.stream(queryBody(server.QueryRequest{Query: queries[k], Trace: tr}), rd)
		if err != nil {
			return 0, 0, nil, "", err
		}
		if msg := checkStream(o, refs[k]); msg != "" {
			return 0, 0, nil, msg, nil
		}
		return o.got.tuples, o.ttft, o.trailer.Trace, "", nil
	})
	after, err := h.serverMetrics()
	if err != nil {
		return err
	}
	serverDelta(rep, before, after)
	runtimeLayer(rep, p, tuples, requests)
	closedLoadgen(rep)
	h.close() // the replay runs on its own catalog
	w := c.spec.Workloads.Stream
	cat := admission(rep, streamInputs(w.Tuples, w.Facts, w.Stations, c.seed))
	if err := kindReplay(rep, t, cat, queries, httpMS, 2, "stream-scan"); err != nil {
		return err
	}
	if err := parallelSpeedup(rep, cat, queries); err != nil {
		return err
	}
	finishLayers(rep)
	rep.printf("set-ups %s", setups)
	return t.write(c)
}

func traceSparse(c config, rep *report, h *harness, queries []string, refs []expected, setups setupTimes) error {
	t := newTracer()
	before, err := h.serverMetrics()
	if err != nil {
		return err
	}
	httpMS, p, tuples, requests := tracedClosed(c, rep, t, queries, func(k int, tr bool) (int, time.Duration, *obs.SpanStats, string, error) {
		status, body, err := h.do(http.MethodPost, "/query", queryBody(server.QueryRequest{Query: queries[k], NoCache: true, Trace: tr}))
		if wrong, failure := outcome(status, err, http.StatusOK); wrong != "" || failure != nil {
			return 0, 0, nil, wrong, failure
		}
		var tracedReply struct {
			Trace *obs.SpanStats `json:"trace"`
		}
		if msg := checkReply(status, body, refs[k]); msg != "" {
			return 0, 0, nil, msg, nil
		}
		if tr {
			if err := json.Unmarshal(body, &tracedReply); err != nil {
				return 0, 0, nil, fmt.Sprintf("undecodable trace: %v", err), nil
			}
		}
		return refs[k].tuples, 0, tracedReply.Trace, "", nil
	})
	after, err := h.serverMetrics()
	if err != nil {
		return err
	}
	serverDelta(rep, before, after)
	runtimeLayer(rep, p, tuples, requests)
	closedLoadgen(rep)
	h.close() // the replay runs on its own catalog
	w := c.spec.Workloads.Sparse
	rels, _ := sparseInputs(w.Tuples, w.Facts, w.RepeatingK, w.RepeatingFacts, c.seed, w.Queries)
	cat := admission(rep, rels)
	if err := kindReplay(rep, t, cat, queries, httpMS, 3, "sparse-compute"); err != nil {
		return err
	}
	if err := parallelSpeedup(rep, cat, queries); err != nil {
		return err
	}
	finishLayers(rep)
	rep.printf("set-ups %s", setups)
	return t.write(c)
}
