package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/engine"
	"github.com/tpset/tpset/internal/obs"
	"github.com/tpset/tpset/internal/query"
	"github.com/tpset/tpset/internal/relation"
	"github.com/tpset/tpset/internal/segment"
	"github.com/tpset/tpset/internal/server"
)

// pointReplaySample is the number of distinct point-query keys replayed
// and sent with Trace:true in the traced point-mixed run.
const pointReplaySample = 40

// tracePoint is the traced run of point-mixed: the open loop for half the
// phase with server counter deltas, then a replay of cache misses and
// hits for a sample of keys, Trace:true requests for the selection
// counters, and the segment store's put, open and restore paths.
func tracePoint(c config, rep *report, w *pointWorld, h *harness, st *segment.Store, dataDir string, setups setupTimes) error {
	t := newTracer()
	half := w.schedule[:len(w.schedule)/2]
	before, err := h.serverMetrics()
	if err != nil {
		h.close()
		st.Close()
		return err
	}
	ol := runOpen(h, w, half, rep, server.QueryRequest{})
	after, err := h.serverMetrics()
	if err != nil {
		h.close()
		st.Close()
		return err
	}
	serverDelta(rep, before, after)
	runtimeLayer(rep, ol.phase, ol.tuples, len(ol.queryLat)+len(ol.putLat))
	rep.set("loadgen.sent", float64(len(half)), "count")
	rep.set("loadgen.ok", float64(rep.attempted-rep.failed), "count")
	rep.set("loadgen.failed", float64(rep.failed), "count")
	rep.set("loadgen.late_p99_ms", quantile(ol.late, 0.99), "ms")
	w.verify(rep, ol.replies)

	keys := sampleKeys(w, pointReplaySample)
	missMS, err := pointTracedRequests(rep, h, t, w, keys)
	if err != nil {
		h.close()
		st.Close()
		return err
	}
	h.close()
	if err := st.Close(); err != nil {
		return err
	}

	cat := admission(rep, putRelations(w))
	for _, nr := range pointRelations(c) {
		if nr.name[0] == 't' { // the u relations came with the PUT contents
			nr.rel.Sort()
			cat.Put(nr.name, nr.rel)
		}
	}
	hits := newTracer()
	if err := pointReplay(rep, t, hits, cat, w, keys); err != nil {
		return err
	}
	rep.set("server.http_residual_frac", t.table(rep, "point-mixed cache misses vs noCache requests", missMS), "ratio")
	hits.table(rep, "point-mixed cache hits", 0)
	if err := segmentLayer(c, rep, w, dataDir); err != nil {
		return err
	}
	finishLayers(rep)
	rep.printf("set-ups %s", setups)
	return t.write(c)
}

// sampleKeys returns the first distinct query keys of the schedule.
func sampleKeys(w *pointWorld, n int) []int {
	seen := map[int]bool{}
	var keys []int
	for _, a := range w.schedule {
		if a.put < 0 && !seen[a.key] {
			seen[a.key] = true
			keys = append(keys, a.key)
			if len(keys) == n {
				break
			}
		}
	}
	return keys
}

// putRelations returns the relation admission replay input: the PUT
// contents, renamed to their catalog names.
func putRelations(w *pointWorld) []namedRel {
	var out []namedRel
	for i, pj := range w.puts {
		out = append(out, namedRel{pj.name, w.putRelation(i)})
	}
	return out
}

// pointTracedRequests sends each sampled key closed-loop with noCache,
// alternating plain and Trace:true, for the selection counters and the
// tracing overhead. It returns the mean plain latency in ms.
func pointTracedRequests(rep *report, h *harness, t *tracer, w *pointWorld, keys []int) (float64, error) {
	sc := &spanCounters{}
	var plain, traced []float64
	for _, k := range keys {
		for _, tr := range []bool{false, true} {
			req := t.newReq()
			name := "client.request"
			if tr {
				name = "client.request_traced"
			}
			id := t.begin(name, 0, req)
			status, body, err := h.do(http.MethodPost, "/query", queryBody(server.QueryRequest{Query: w.pointQuery(k), NoCache: true, Trace: tr}))
			t.end(id)
			rep.attempted++
			wrong, failure := outcome(status, err, http.StatusOK)
			if failure != nil {
				rep.failed++
				rep.printf("traced point query failed: %v", failure)
				continue
			}
			var r struct {
				queryReply
				Trace *obs.SpanStats `json:"trace"`
			}
			if wrong == "" {
				if err := json.Unmarshal(body, &r); err != nil {
					wrong = fmt.Sprintf("undecodable response: %v", err)
				}
			}
			if wrong != "" {
				rep.wrongf("%s: %s", w.pointQuery(k), wrong)
				continue
			}
			if msg := w.check(pointReply{key: k, inputs: r.Inputs, raw: r.Result}); msg != "" {
				rep.wrongf("%s: %s", w.pointQuery(k), msg)
			}
			if tr {
				sc.add(r.Trace)
				traced = append(traced, ms(t.dur(id)))
			} else {
				plain = append(plain, ms(t.dur(id)))
			}
		}
	}
	rep.set("trace.overhead_frac", safeDiv(median(traced), median(plain))-1, "ratio")
	nk := float64(len(keys))
	rep.set("query.select_ms", float64(sc.selectUS)/1000/nk, "ms")
	rep.set("query.select_rows_examined_per_row", safeDiv(float64(sc.scanOut), float64(sc.selectOut)), "ratio")
	rep.set("core.windows", float64(sc.windows)/nk, "count")
	rep.set("core.gallops", float64(sc.gallops)/nk, "count")
	rep.set("core.stall_ms", float64(sc.stallUS)/1000/nk, "ms")
	return mean(plain), nil
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return safeDiv(s, float64(len(xs)))
}

// pointReplay replays each sampled key twice through the handler's
// POST /query path — a cache miss (evaluate, store) into misses and a
// hit into hits — in the benchmark's own code.
func pointReplay(rep *report, misses, hits *tracer, cat *server.Catalog, w *pointWorld, keys []int) error {
	cache := server.NewCache(server.DefaultCacheSize)
	var st replayStats
	var hitPrepare time.Duration
	var nodes, tuples int64
	for pass := 0; pass < 2; pass++ {
		t := misses
		if pass == 1 {
			t = hits
		}
		for _, k := range keys {
			q := w.pointQuery(k)
			req := t.newReq()
			root := t.begin("replay.request", 0, req)
			p0 := time.Now()
			var n query.Node
			var err error
			t.timed("query.parse", root, req, func() { n, err = query.Parse(q) })
			if err != nil {
				return err
			}
			var canonical string
			t.timed("query.rewrite", root, req, func() { n = query.PushDownSelections(n) })
			t.timed("query.canonical", root, req, func() {
				canonical = query.Canonical(n)
				_ = query.Classify(n)
			})
			var db map[string]*relation.Relation
			var versions []server.RelVersion
			names := query.Relations(n)
			t.timed("server.snapshot", root, req, func() { db, versions, err = cat.Snapshot(names) })
			if err != nil {
				return err
			}
			prep := time.Since(p0)
			key := server.CacheKey(canonical, versions)
			var out *relation.Relation
			var hit bool
			t.timed("server.cache", root, req, func() { out, hit = cache.Get(key) })
			if pass == 1 {
				hitPrepare += prep
			}
			if !hit {
				var cur *engine.StreamCursor
				t0 := time.Now()
				t.timed("engine.build", root, req, func() {
					cur, err = engine.New(engine.Config{}).CursorCtx(context.Background(), n, db, core.Options{AssumeSorted: true})
				})
				if err != nil {
					return err
				}
				st.build += time.Since(t0)
				t0 = time.Now()
				t.timed("engine.drain", root, req, func() {
					out = core.Materialize(cur)
					cur.Close()
				})
				st.drain += time.Since(t0)
				t.timed("server.cache", root, req, func() { cache.Put(key, names, out) })
				for i := range out.Tuples {
					nodes += int64(out.Tuples[i].Lineage.Size())
				}
				tuples += int64(out.Len())
			}
			t0 := time.Now()
			var buf bytes.Buffer
			t.timed("server.encode", root, req, func() {
				enc := json.NewEncoder(&buf)
				enc.SetEscapeHTML(false)
				err = enc.Encode(server.EncodeRelation(out, 0))
			})
			if err != nil {
				return err
			}
			if pass == 0 {
				st.encode += time.Since(t0)
				st.wire += int64(buf.Len())
			}
			t.end(root)
		}
	}
	nk := float64(len(keys))
	rep.set("query.prepare_us", float64(hitPrepare.Microseconds())/nk, "us")
	rep.set("engine.build_us", float64(st.build.Microseconds())/nk, "us")
	rep.set("engine.drain_ns_per_tuple", safeDiv(float64(st.drain.Nanoseconds()), float64(tuples)), "ns")
	rep.set("server.encode_ns_per_tuple", safeDiv(float64(st.encode.Nanoseconds()), float64(tuples)), "ns")
	rep.set("server.wire_bytes_per_tuple", safeDiv(float64(st.wire), float64(tuples)), "B")
	rep.set("lineage.nodes_per_tuple", safeDiv(float64(nodes), float64(tuples)), "count")
	// Point results are 1OF and valued inside the drain; their rendering
	// is timed on the materialized results.
	var strT, probT time.Duration
	var strN int64
	for _, k := range keys {
		q := w.pointQuery(k)
		n := query.PushDownSelections(query.MustParse(q))
		_, versions, err := cat.Snapshot(query.Relations(n))
		if err != nil {
			return err
		}
		out, ok := cache.Get(server.CacheKey(query.Canonical(n), versions))
		if !ok {
			continue
		}
		t0 := time.Now()
		for i := range out.Tuples {
			_ = out.Tuples[i].Lineage.String()
		}
		strT += time.Since(t0)
		t0 = time.Now()
		for i := range out.Tuples {
			_ = out.Tuples[i].Lineage.Prob()
		}
		probT += time.Since(t0)
		strN += int64(out.Len())
	}
	rep.set("lineage.string_ns_per_tuple", safeDiv(float64(strT.Nanoseconds()), float64(strN)), "ns")
	rep.set("lineage.prob_1of_ns_per_tuple", safeDiv(float64(probT.Nanoseconds()), float64(strN)), "ns")
	return nil
}

// segmentLayer times the segment store from outside: durable puts of the
// PUT-sized relations into a scratch store, then opening and restoring
// the workload's data dir.
func segmentLayer(c config, rep *report, w *pointWorld, dataDir string) error {
	scratch, err := os.MkdirTemp(filepath.Join(c.scratchDir(), "tmp"), "segput-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	st, err := segment.OpenStore(scratch)
	if err != nil {
		return err
	}
	cat := server.NewCatalog()
	var putMS []float64
	var walBytes, userBytes int64
	walPath := filepath.Join(scratch, "wal.log")
	for i, pj := range putRelations(w) {
		if i == 20 {
			break
		}
		r := pj.rel
		r.Schema.Name = pj.name
		r.Intern()
		r.Sort()
		cat.Put(pj.name, r)
		before := fileSize(walPath)
		t0 := time.Now()
		if err := st.Put(pj.name, r, nil); err != nil {
			st.Close()
			return err
		}
		putMS = append(putMS, ms(time.Since(t0)))
		if grown := fileSize(walPath) - before; grown > 0 {
			walBytes += grown
			userBytes += w.puts[i].size
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	rep.set("segment.put_ms", median(putMS), "ms")
	rep.set("segment.wal_bytes_per_user_byte", safeDiv(float64(walBytes), float64(userBytes)), "ratio")

	var openMS, restoreMS []float64
	var tuples int
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		st, err := segment.OpenStore(dataDir)
		if err != nil {
			return err
		}
		openMS = append(openMS, ms(time.Since(t0)))
		t0 = time.Now()
		rels, _, err := st.Restore()
		if err != nil {
			st.Close()
			return err
		}
		restoreMS = append(restoreMS, ms(time.Since(t0)))
		tuples = 0
		for _, r := range rels {
			tuples += r.Len()
		}
		if err := st.Close(); err != nil {
			return err
		}
	}
	var segBytes int64
	entries, err := os.ReadDir(dataDir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".seg") {
			segBytes += fileSize(filepath.Join(dataDir, e.Name()))
		}
	}
	rep.set("segment.open_ms", median(openMS), "ms")
	rep.set("segment.restore_ms", median(restoreMS), "ms")
	rep.set("segment.bytes_per_tuple", safeDiv(float64(segBytes), float64(tuples)), "B")
	rep.printf("segment: %d puts p50 %.3f ms, open %s ms, restore %s ms, %d bytes in segments for %d tuples",
		len(putMS), median(putMS), fmtList(openMS), fmtList(restoreMS), segBytes, tuples)
	return nil
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
