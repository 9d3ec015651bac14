package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/tpset/tpset/internal/query"
	"github.com/tpset/tpset/internal/relation"
	"github.com/tpset/tpset/internal/segment"
	"github.com/tpset/tpset/internal/server"
)

// pointWorld is the generated state of point-mixed: the relation names,
// the arrival schedule, the PUTs, and which content stands behind every
// (relation, version) the server reports. Relation contents are
// regenerated from the seed when the answers are checked, and the PUT
// bodies wait in files, so the measured phase runs without the
// benchmark's own copies on the heap.
type pointWorld struct {
	c        config
	names    []string
	keys     int // size of the query key space
	perm     []int
	schedule []arrival
	puts     []putJob

	mu       sync.Mutex
	initial  []namedRel     // kept by the set-up, dropped for the phase, regenerated after it
	versions map[string]int // "name@version" -> PUT index, -1 for the initial content
	// byFact maps "name#PUT index" (-1 for the initial content) to the
	// content's tuples by fact.
	byFact map[string]map[string]*relation.Relation
}

// arrival is one scheduled request: a query key, or a PUT (put >= 0).
// Warm-up arrivals are sent and checked but left out of the metrics.
type arrival struct {
	due  time.Duration
	key  int
	put  int
	warm bool
}

// putJob is one scheduled PUT: the relation it replaces, the seed and
// variable prefix its content is generated from, and the file that holds
// its encoded body.
type putJob struct {
	name   string
	prefix string
	seed   int64
	path   string
	size   int64
}

// popularitySeed fixes which query keys are hot. The ranking is part of
// the workload's definition, like its sizes; the seed argument draws the
// data, the request sequence and the PUTs.
const popularitySeed = 1

// pointQuery renders query key k: a pair of distinct relations, an
// operator and a fact, all selected on that fact.
func (w *pointWorld) pointQuery(k int) string {
	n := len(w.names)
	facts := w.keys / (n * (n - 1) * 2)
	f := k % facts
	k /= facts
	op := "&"
	if k%2 == 1 {
		op = "-"
	}
	k /= 2
	a := k / (n - 1)
	b := k % (n - 1)
	if b >= a {
		b++
	}
	fact := fmt.Sprintf("f%06d", f)
	return fmt.Sprintf("sigma[Fact='%s'](%s) %s sigma[Fact='%s'](%s)", fact, w.names[a], op, fact, w.names[b])
}

// pointRelations generates the initial catalog: medium relations t0..
// over Table III interval lengths, and small relations u0.. over the
// first SmallFacts facts, on one shared dictionary.
func pointRelations(c config) []namedRel {
	p := c.spec.Workloads.Point
	var out []namedRel
	var all []*relation.Relation
	lens := []int64{3, 10, 50, 100}
	for i := 0; i < p.MediumRelations; i++ {
		name := fmt.Sprintf("t%d", i)
		r := synthetic(name, p.MediumTuples, p.MediumFacts, lens[i%len(lens)], c.seed+int64(i))
		out = append(out, namedRel{name, r})
		all = append(all, r)
	}
	for i := 0; i < p.SmallRelations; i++ {
		name := fmt.Sprintf("u%d", i)
		r := synthetic(name, p.SmallTuples, p.SmallFacts, 3, c.seed+100+int64(i))
		out = append(out, namedRel{name, r})
		all = append(all, r)
	}
	relation.InternAll(all...)
	return out
}

func (w *pointWorld) putRelation(i int) *relation.Relation {
	p := w.c.spec.Workloads.Point
	return synthetic(w.puts[i].prefix, p.SmallTuples, p.SmallFacts, 3, w.puts[i].seed)
}

func newPointWorld(c config) *pointWorld {
	p := c.spec.Workloads.Point
	w := &pointWorld{c: c, versions: map[string]int{}, byFact: map[string]map[string]*relation.Relation{}}
	for i := 0; i < p.MediumRelations; i++ {
		w.names = append(w.names, fmt.Sprintf("t%d", i))
	}
	for i := 0; i < p.SmallRelations; i++ {
		w.names = append(w.names, fmt.Sprintf("u%d", i))
	}
	n := len(w.names)
	w.keys = n * (n - 1) * 2 * p.SmallFacts
	w.perm = rand.New(rand.NewSource(popularitySeed)).Perm(w.keys)
	rng := rand.New(rand.NewSource(c.seed + 1000))
	zipf := rand.NewZipf(rng, p.ZipfS, 1, uint64(w.keys-1))
	total := int(math.Ceil((p.WarmupS + c.seconds) * p.RatePerS))
	for i := 0; i < total; i++ {
		due := float64(i) / p.RatePerS
		a := arrival{due: time.Duration(due * float64(time.Second)), put: -1, warm: due < p.WarmupS}
		if putEvery := int(math.Round(1 / p.PutShare)); i%putEvery == putEvery/2 {
			j := (i / putEvery) % p.SmallRelations
			pj := putJob{name: fmt.Sprintf("u%d", j), prefix: fmt.Sprintf("u%dv%dx", j, len(w.puts)), seed: c.seed + 5000 + int64(i)}
			a.put = len(w.puts)
			w.puts = append(w.puts, pj)
		} else {
			a.key = w.perm[zipf.Uint64()]
		}
		w.schedule = append(w.schedule, a)
	}
	return w
}

// writeBodies encodes every scheduled PUT body into a file under dir.
func (w *pointWorld) writeBodies(dir string) error {
	for i := range w.puts {
		body, err := json.Marshal(server.EncodeRelation(w.putRelation(i), 0))
		if err != nil {
			return err
		}
		w.puts[i].path = filepath.Join(dir, fmt.Sprintf("put-%d.json", i))
		w.puts[i].size = int64(len(body))
		if err := os.WriteFile(w.puts[i].path, body, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// dropContents releases the contents the set-up's probe generated, so
// the measured phase runs without them on the heap.
func (w *pointWorld) dropContents() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.initial = nil
	w.byFact = map[string]map[string]*relation.Relation{}
}

// setVersion records which content a catalog version holds: PUT put, or
// the initial content when put is -1.
func (w *pointWorld) setVersion(name string, version uint64, put int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.versions[fmt.Sprintf("%s@%d", name, version)] = put
}

// factSlice returns the tuples of fact f in the given relation version,
// generating and indexing its content on first use.
func (w *pointWorld) factSlice(name string, version uint64, fact string) (*relation.Relation, error) {
	key := fmt.Sprintf("%s@%d", name, version)
	w.mu.Lock()
	defer w.mu.Unlock()
	put, ok := w.versions[key]
	if !ok {
		return nil, fmt.Errorf("no content known for %s", key)
	}
	if fr, ok := w.indexLocked(name, put)[fact]; ok {
		return fr, nil
	}
	return relation.New(relation.NewSchema(name, "Fact")), nil
}

// index generates and indexes by fact the content of relation name that
// PUT put wrote (-1: the initial content), unless that is done already.
func (w *pointWorld) index(name string, put int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.indexLocked(name, put)
}

func (w *pointWorld) indexLocked(name string, put int) map[string]*relation.Relation {
	key := fmt.Sprintf("%s#%d", name, put)
	if idx, ok := w.byFact[key]; ok {
		return idx
	}
	var r *relation.Relation
	if put >= 0 {
		r = w.putRelation(put)
	} else {
		if w.initial == nil {
			w.initial = pointRelations(w.c)
		}
		for _, nr := range w.initial {
			if nr.name == name {
				r = nr.rel
			}
		}
	}
	idx := map[string]*relation.Relation{}
	for i := range r.Tuples {
		f := r.Tuples[i].Fact[0]
		fr, ok := idx[f]
		if !ok {
			fr = relation.New(relation.NewSchema(name, "Fact"))
			idx[f] = fr
		}
		fr.Tuples = append(fr.Tuples, r.Tuples[i])
	}
	w.byFact[key] = idx
	return idx
}

// pointReply is one measured query response kept for checking.
type pointReply struct {
	key    int
	inputs []server.RelVersion
	digest uint32
	raw    json.RawMessage
}

// openLoop is the outcome of one open-loop phase.
type openLoop struct {
	phase      *phaseStats
	queryLat   []float64 // ms from due time; failed = +Inf
	putLat     []float64
	queryAt    []time.Duration // due time of each queryLat sample
	putAt      []time.Duration
	late       []float64 // ms the generator dispatched after the due time
	backlog    []int     // queued requests at each dispatch
	tuples     int64
	completed  int
	cachedHits int
	hitLat     []float64
	missLat    []float64
	replies    []pointReply
	drainMS    float64 // from the last due time to the last completion
	// measuredFrom is the due time of the first measured arrival; the
	// measured window runs from it to the last completion. cpuFrom is
	// the process CPU time when that arrival was dispatched.
	measuredFrom time.Time
	cpuFrom      time.Duration
}

// runOpen drives the schedule against h at its fixed rate with two
// connections. Each request is timed from its due time, so a stall also
// charges the requests queued behind it.
func runOpen(h *harness, w *pointWorld, schedule []arrival, rep *report, queryOpts server.QueryRequest) *openLoop {
	out := &openLoop{}
	type job struct {
		a   arrival
		due time.Time
	}
	jobs := make(chan job, len(schedule)) // the whole schedule: dispatch never blocks
	var mu sync.Mutex
	var wg sync.WaitGroup
	out.phase = startPhase()
	start := out.phase.start
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				w.serve(h, j.a, j.due, queryOpts, out, rep, &mu)
			}
		}()
	}
	measuring := false
	for _, a := range schedule {
		due := start.Add(a.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if !a.warm && !measuring {
			measuring = true
			out.measuredFrom, out.cpuFrom = due, processCPU()
		}
		late := ms(time.Since(due))
		out.late = append(out.late, late)
		out.backlog = append(out.backlog, len(jobs))
		jobs <- job{a, due}
	}
	close(jobs)
	wg.Wait()
	out.phase.finish()
	if n := len(schedule); n > 0 {
		out.drainMS = ms(out.phase.end.Sub(start.Add(schedule[n-1].due)))
	}
	return out
}

// serve sends one scheduled request and records its outcome.
func (w *pointWorld) serve(h *harness, a arrival, due time.Time, queryOpts server.QueryRequest, out *openLoop, rep *report, mu *sync.Mutex) {
	if a.put >= 0 {
		pj := w.puts[a.put]
		status, body, err := sendFile(h, http.MethodPut, "/relations/"+pj.name, pj.path, pj.size)
		lat := ms(time.Since(due))
		wrong, failure := outcome(status, err, http.StatusOK, http.StatusCreated)
		var ack struct {
			Version uint64 `json:"version"`
			Tuples  int    `json:"tuples"`
		}
		if wrong == "" && failure == nil {
			if err := json.Unmarshal(body, &ack); err != nil || ack.Tuples != w.c.spec.Workloads.Point.SmallTuples {
				wrong = fmt.Sprintf("acknowledged %d tuples of %d (%v)", ack.Tuples, w.c.spec.Workloads.Point.SmallTuples, err)
			} else {
				w.setVersion(pj.name, ack.Version, a.put)
			}
		}
		mu.Lock()
		defer mu.Unlock()
		rep.attempted++
		switch {
		case failure != nil:
			rep.failed++
			rep.printf("PUT %s failed: %v: %.200s", pj.name, failure, body)
		case wrong != "":
			rep.wrongf("PUT %s: %s: %.200s", pj.name, wrong, body)
		}
		if failure != nil || wrong != "" {
			lat = math.Inf(1)
		}
		if !a.warm {
			out.putLat = append(out.putLat, lat)
			out.putAt = append(out.putAt, a.due)
		}
		return
	}
	q := queryOpts
	q.Query = w.pointQuery(a.key)
	status, body, err := h.do(http.MethodPost, "/query", queryBody(q))
	lat := ms(time.Since(due))
	var r queryReply
	wrong, failure := outcome(status, err, http.StatusOK)
	if wrong == "" && failure == nil {
		if err := json.Unmarshal(body, &r); err != nil {
			wrong = fmt.Sprintf("undecodable response: %v", err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	rep.attempted++
	if failure != nil || wrong != "" {
		if failure != nil {
			rep.failed++
			rep.printf("query %q failed: %v: %.200s", q.Query, failure, body)
		} else {
			rep.wrongf("%s: %s: %.200s", q.Query, wrong, body)
		}
		if !a.warm {
			out.queryLat = append(out.queryLat, math.Inf(1))
			out.queryAt = append(out.queryAt, a.due)
		}
		return
	}
	out.replies = append(out.replies, pointReply{key: a.key, inputs: r.Inputs,
		digest: crc32.Checksum(r.Result, castagnoli), raw: r.Result})
	if a.warm {
		return
	}
	out.queryLat = append(out.queryLat, lat)
	out.queryAt = append(out.queryAt, a.due)
	out.completed++
	out.tuples += int64(countTuples(r.Result))
	if r.Cached {
		out.cachedHits++
		out.hitLat = append(out.hitLat, lat)
	} else {
		out.missLat = append(out.missLat, lat)
	}
}

// sendFile sends the size-byte file at path as a request body. Opening
// the file is part of the timed request; its bytes come from the page
// cache, since writeBodies wrote them just before the phase.
func sendFile(h *harness, method, path, file string, size int64) (int, []byte, error) {
	f, err := os.Open(file)
	if err != nil {
		return 0, nil, err
	}
	defer f.Close()
	return h.doReader(method, path, f, size)
}

func countTuples(raw []byte) int { return bytes.Count(raw, tupleMark) }

// verify checks every reply against internal/ref over the relation
// versions it reports; identical replies are checked once.
func (w *pointWorld) verify(rep *report, replies []pointReply) {
	type seen struct {
		key    int
		inputs string
		digest uint32
	}
	verdicts := map[seen]string{}
	for _, r := range replies {
		var vs strings.Builder
		for _, v := range r.inputs {
			fmt.Fprintf(&vs, "%s@%d,", v.Name, v.Version)
		}
		s := seen{r.key, vs.String(), r.digest}
		msg, ok := verdicts[s]
		if !ok {
			msg = w.check(r)
			verdicts[s] = msg
		}
		if msg != "" {
			rep.wrongf("%s: %s", w.pointQuery(r.key), msg)
		}
	}
	rep.printf("checked %d query replies against internal/ref (%d distinct)", len(replies), len(verdicts))
}

func (w *pointWorld) check(r pointReply) string {
	q := w.pointQuery(r.key)
	fact := q[len("sigma[Fact='") : len("sigma[Fact='")+7]
	db := map[string]*relation.Relation{}
	for _, v := range r.inputs {
		fr, err := w.factSlice(v.Name, v.Version, fact)
		if err != nil {
			return err.Error()
		}
		db[v.Name] = fr
	}
	want, err := refQuery(q, db)
	if err != nil {
		return err.Error()
	}
	return checkAgainstRef(r.raw, want)
}

// pointSetup writes the durable catalog once, then restarts from it
// setupRepeats times, timing each restart from the empty server to the
// first correct answer. The last restart stays up. The probe's reference
// inputs are generated and indexed before the timed restarts: set-up
// time excludes input generation.
func pointSetup(c config, w *pointWorld, rels []namedRel, dataDir string) (*harness, *segment.Store, setupTimes, error) {
	var times setupTimes
	st, err := segment.OpenStore(dataDir)
	if err != nil {
		return nil, nil, times, err
	}
	srv := server.New(server.Config{})
	if err := srv.AttachStore(st); err != nil {
		return nil, nil, times, err
	}
	for _, nr := range rels {
		if _, err := srv.Load(nr.name, nr.rel); err != nil {
			return nil, nil, times, fmt.Errorf("loading %s: %w", nr.name, err)
		}
	}
	for _, rv := range srv.Relations() {
		w.setVersion(rv.Name, rv.Version, -1)
	}
	if err := st.Close(); err != nil {
		return nil, nil, times, err
	}
	probe := w.perm[0]
	n, err := query.Parse(w.pointQuery(probe))
	if err != nil {
		return nil, nil, times, err
	}
	w.initial = rels
	for _, name := range query.Relations(n) {
		w.index(name, -1)
	}
	var h *harness
	for i := 0; i < c.spec.SetupRepeats; i++ {
		if h != nil {
			h.close()
			if err := st.Close(); err != nil {
				return nil, nil, times, err
			}
		}
		progress("set-up %d", i+1)
		runtime.GC() // the previous set-up's garbage is not this one's cost
		start, cpu := time.Now(), processCPU()
		if st, err = segment.OpenStore(dataDir); err != nil {
			return nil, nil, times, err
		}
		srv := server.New(server.Config{})
		if err := srv.AttachStore(st); err != nil {
			return nil, nil, times, err
		}
		if h, err = startHarness(srv); err != nil {
			return nil, nil, times, err
		}
		if err := w.probe(h, probe); err != nil {
			h.close()
			st.Close()
			return nil, nil, times, err
		}
		times.add(start, cpu)
	}
	return h, st, times, nil
}

func (w *pointWorld) probe(h *harness, key int) error {
	q := w.pointQuery(key)
	status, body, err := h.do(http.MethodPost, "/query", queryBody(server.QueryRequest{Query: q, NoCache: true}))
	if err != nil {
		return fmt.Errorf("probe query: %w", err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("probe query: status %d: %.200s", status, body)
	}
	var r queryReply
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("probe query: %w", err)
	}
	if msg := w.check(pointReply{key: key, inputs: r.Inputs, raw: r.Result}); msg != "" {
		return fmt.Errorf("probe query %q: %s", q, msg)
	}
	return nil
}

func runPoint(c config) (*report, error) {
	progress("generating inputs")
	w := newPointWorld(c)
	dir, err := os.MkdirTemp(filepath.Join(c.scratchDir(), "tmp"), "point-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := w.writeBodies(dir); err != nil {
		return nil, err
	}
	dataDir := filepath.Join(dir, "data")
	h, st, setups, err := pointSetup(c, w, pointRelations(c), dataDir)
	if err != nil {
		return nil, err
	}
	w.dropContents()
	rep := newReport()
	if c.trace {
		err := tracePoint(c, rep, w, h, st, dataDir, setups)
		return rep, err
	}
	progress("measuring")
	ol := runOpen(h, w, w.schedule, rep, server.QueryRequest{})
	h.close()
	if err := st.Close(); err != nil {
		return nil, fmt.Errorf("closing the store: %w", err)
	}
	if err := openLoopValid(ol); err != nil {
		return nil, err
	}
	wall := ol.phase.wall()
	cpu := (ol.phase.cpu1 - ol.cpuFrom).Seconds()
	rep.set("setup_s", median(setups.cpu), "s")
	rep.set("tuples_per_cpu_s", float64(ol.tuples)/cpu, "1/s")
	rep.set("queries_per_cpu_s", float64(ol.completed)/cpu, "1/s")
	rep.set("heap_peak_mb", ol.phase.heapPeakMB(), "MB")
	window := ol.phase.end.Sub(ol.measuredFrom).Seconds()
	p := c.spec.Workloads.Point
	from, length := time.Duration(p.WarmupS*float64(time.Second)), time.Duration(c.seconds*float64(time.Second))
	queryMeds := windowMedians(ol.queryLat, ol.queryAt, from, length, queryWindows)
	putMeds := windowMedians(ol.putLat, ol.putAt, from, length, putWindows)
	rep.printf(wallNote, ol.phase.stealPct(), median(setups.wall), float64(ol.tuples)/window, float64(ol.completed)/window,
		finiteMS(median(queryMeds), wall), finiteMS(quantile(ol.queryLat, 0.99), wall))
	rep.printf("  put_p50_ms %.3f ms (wall clock, not gated)", finiteMS(median(putMeds), wall))
	rep.printf("window medians ms: queries %s; PUTs %s", fmtList(queryMeds), fmtList(putMeds))
	rep.printf("measured %.2f s: %d queries (%d cache hits), %d PUTs, process CPU %.2f s over the measured window, live heap at start %.1f MB; set-ups %s",
		wall, len(ol.queryLat), ol.cachedHits, len(ol.putLat), cpu, ol.phase.liveStartMB(), setups)
	rep.printf("query latency ms: p90 %.2f p95 %.2f p99 %.2f max %.2f; hits p50 %.2f p99 %.2f; misses p50 %.2f p99 %.2f",
		quantile(ol.queryLat, 0.9), quantile(ol.queryLat, 0.95), quantile(ol.queryLat, 0.99), quantile(ol.queryLat, 1),
		quantile(ol.hitLat, 0.5), quantile(ol.hitLat, 0.99), quantile(ol.missLat, 0.5), quantile(ol.missLat, 0.99))
	rep.printf("PUT latency ms over the whole phase: p25 %.2f p50 %.2f p75 %.2f p99 %.2f",
		quantile(ol.putLat, 0.25), quantile(ol.putLat, 0.5), quantile(ol.putLat, 0.75), quantile(ol.putLat, 0.99))
	var putBytes int64
	for _, pj := range w.puts {
		putBytes += pj.size
	}
	rep.printf("PUT bodies: %d, %.1f MB, sent from files so they stay off the measured heap", len(w.puts), float64(putBytes)/(1<<20))
	n := len(ol.backlog)
	rep.printf("open-loop self-check: generator late p50 %.3f ms p99 %.3f ms, backlog mean %.2f in the first quarter and %.2f in the last, max %d, drain after last due %.1f ms",
		quantile(ol.late, 0.5), quantile(ol.late, 0.99), meanInt(ol.backlog[:n/4]), meanInt(ol.backlog[n-n/4:]), maxInt(ol.backlog), ol.drainMS)
	progress("checking replies")
	w.verify(rep, ol.replies)
	return rep, nil
}

// The latency metrics of point-mixed are the median over equal windows of
// the measured phase (by due time) of each window's median latency. On a
// shared two-CPU machine a slow spell of a few seconds lifts every
// latency inside it; over whole-phase samples it moves the median by its
// share of the phase, over windows only when it covers half of them.
// PUTs arrive a twentieth as often as queries, hence fewer windows.
const (
	queryWindows = 10
	putWindows   = 5
)

// windowMedians splits the samples into n windows of equal length from
// from to from+length by due time and returns the median latency of each
// window that has samples.
func windowMedians(lat []float64, at []time.Duration, from, length time.Duration, n int) []float64 {
	bins := make([][]float64, n)
	for i, d := range at {
		b := min(max(int(int64(n)*int64(d-from)/int64(length)), 0), n-1)
		bins[b] = append(bins[b], lat[i])
	}
	var out []float64
	for _, b := range bins {
		if len(b) > 0 {
			out = append(out, median(b))
		}
	}
	return out
}

// openLoopValid rejects a run whose generator fell behind its schedule
// or whose server did not keep up with it: its latencies would describe a
// different load. A late dispatch is charged to the request's latency,
// which is timed from the due time, so only lateness that persists
// changes the offered load; on two CPUs shared by the client and the
// server a woken generator waits up to a scheduler slice or two for a
// CPU, so single late dispatches of 20 to 40 ms are normal. Likewise a
// backlog that builds during a slow spell and empties again is load the
// server carried; one that never empties in the last quarter of the phase
// is not.
func openLoopValid(ol *openLoop) error {
	if late := quantile(ol.late, 0.5); late > 10 {
		return fmt.Errorf("run invalid: the load generator ran %.1f ms late at p50", late)
	}
	if n := len(ol.backlog); n >= 8 {
		if least := minInt(ol.backlog[n-n/4:]); least > 0 {
			return fmt.Errorf("run invalid: the backlog never emptied in the last quarter of the phase (at least %d queued)", least)
		}
	}
	if ol.drainMS > 2000 {
		return fmt.Errorf("run invalid: requests completed %.0f ms after the last was due", ol.drainMS)
	}
	return nil
}

func minInt(xs []int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		m = min(m, x)
	}
	return m
}

func meanInt(xs []int) float64 {
	s := 0
	for _, x := range xs {
		s += x
	}
	return float64(s) / float64(len(xs))
}

func maxInt(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
