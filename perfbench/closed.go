package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"time"

	"github.com/tpset/tpset/internal/relation"
	"github.com/tpset/tpset/internal/server"
)

// setupTimes are the wall and process CPU seconds of each set-up.
type setupTimes struct{ wall, cpu []float64 }

func (s *setupTimes) add(start time.Time, cpu time.Duration) {
	s.cpu = append(s.cpu, (processCPU() - cpu).Seconds())
	s.wall = append(s.wall, time.Since(start).Seconds())
}

func (s setupTimes) String() string {
	return fmt.Sprintf("CPU %s s, wall %s s", fmtList(s.cpu), fmtList(s.wall))
}

// setupLoad builds the catalog of stream-scan and sparse-compute
// setupRepeats times, each time on a fresh server from fresh copies of
// the generated relations, and times each set-up from the empty server to
// the first correct answer of the probe query. Copying the inputs is not
// timed. The last server stays up and is returned.
func setupLoad(c config, rels []namedRel, probe string) (*harness, setupTimes, error) {
	db := make(map[string]*relation.Relation, len(rels))
	for _, nr := range rels {
		db[nr.name] = nr.rel
	}
	var times setupTimes
	want, err := refQuery(probe, db)
	if err != nil {
		return nil, times, err
	}
	var h *harness
	for i := 0; i < c.spec.SetupRepeats; i++ {
		if h != nil {
			h.close()
		}
		fresh := cloneAll(rels)
		progress("set-up %d", i+1)
		runtime.GC() // the previous set-up's garbage is not this one's cost
		start, cpu := time.Now(), processCPU()
		srv := server.New(server.Config{})
		for _, nr := range fresh {
			if _, err := srv.Load(nr.name, nr.rel); err != nil {
				return nil, times, fmt.Errorf("loading %s: %w", nr.name, err)
			}
		}
		if h, err = startHarness(srv); err != nil {
			return nil, times, err
		}
		if err := probeQuery(h, probe, want); err != nil {
			h.close()
			return nil, times, err
		}
		times.add(start, cpu)
	}
	return h, times, nil
}

// probeQuery sends the set-up's first query and checks it against
// internal/ref.
func probeQuery(h *harness, probe string, want *relation.Relation) error {
	status, body, err := h.do(http.MethodPost, "/query", queryBody(server.QueryRequest{Query: probe, NoCache: true}))
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
	if msg := checkAgainstRef(r.Result, want); msg != "" {
		return fmt.Errorf("probe query %q: %s", probe, msg)
	}
	return nil
}

// kindStats are the client-side measurements of one request kind.
type kindStats struct {
	name    string
	lat     []float64 // ms per request; failed requests are +Inf
	cpu     []float64 // process CPU ms per request; failed requests are +Inf
	wantTup int
}

// loopResult is a measured closed loop.
type loopResult struct {
	kinds     []*kindStats
	rotations int
	tuples    int64
	phase     *phaseStats
}

func (l *loopResult) latencies() []float64 {
	var all []float64
	for _, k := range l.kinds {
		all = append(all, k.lat...)
	}
	return all
}

// closedLoop runs one client that sends request kind i%len(names) as soon
// as the previous request completed. It stops at the first whole rotation
// after seconds, so every kind is sent equally often and the latency
// quantiles do not depend on where a run happened to stop. Each request
// is timed in wall time and in the process's CPU time: with one client
// and requests one at a time, the CPU the process spends while a request
// is outstanding (server, engine workers, collector and the client's
// checks) is that request's cost. send returns the result tuples
// delivered and a wrong-answer message.
func closedLoop(rep *report, seconds float64, names []string, send func(k int, ks *kindStats) (int, string, error)) *loopResult {
	res := &loopResult{}
	for _, n := range names {
		res.kinds = append(res.kinds, &kindStats{name: n})
	}
	progress("measuring")
	res.phase = startPhase()
	deadline := res.phase.start.Add(time.Duration(seconds * float64(time.Second)))
	i := 0
	for ; i%len(names) != 0 || time.Now().Before(deadline); i++ {
		k := i % len(names)
		ks := res.kinds[k]
		rep.attempted++
		t0, c0 := time.Now(), processCPU()
		tuples, wrong, err := send(k, ks)
		d, c := time.Since(t0), processCPU()-c0
		switch {
		case err != nil:
			rep.failed++
			rep.printf("request %s failed: %v", ks.name, err)
		case wrong != "":
			rep.wrongf("%s: %s", ks.name, wrong)
		default:
			ks.lat = append(ks.lat, ms(d))
			ks.cpu = append(ks.cpu, ms(c))
			res.tuples += int64(tuples)
			continue
		}
		ks.lat = append(ks.lat, math.Inf(1))
		ks.cpu = append(ks.cpu, math.Inf(1))
	}
	res.phase.finish()
	res.rotations = i / len(names)
	return res
}

// rotation is the length of one typical rotation in ms: the sum over
// the rotation's request kinds of each kind's median (of lat, or of cpu)
// over the whole phase. A kind's median over the phase is the estimate
// the host's fast and slow spells move least, and a sum of five medians
// moves less than any one of them.
func (l *loopResult) rotation(of func(*kindStats) []float64) float64 {
	s := 0.0
	for _, k := range l.kinds {
		s += median(of(k))
	}
	return s
}

// rotationTuples is the number of result tuples one rotation delivers.
func (l *loopResult) rotationTuples() float64 {
	n := 0
	for _, k := range l.kinds {
		n += k.wantTup
	}
	return float64(n)
}

// e2eClosed sets the end-to-end metrics every closed-loop workload shares
// and prints their wall-clock counterparts.
func e2eClosed(rep *report, setups setupTimes, loop *loopResult) {
	wall := loop.phase.wall()
	lat := loop.latencies()
	cpuRot := finiteMS(loop.rotation(func(k *kindStats) []float64 { return k.cpu }), wall) / 1000
	wallRot := finiteMS(loop.rotation(func(k *kindStats) []float64 { return k.lat }), wall) / 1000
	kinds := float64(len(loop.kinds))
	rep.set("setup_s", median(setups.cpu), "s")
	rep.set("tuples_per_cpu_s", loop.rotationTuples()/cpuRot, "1/s")
	rep.set("queries_per_cpu_s", kinds/cpuRot, "1/s")
	rep.set("heap_peak_mb", loop.phase.heapPeakMB(), "MB")
	rep.printf(wallNote, loop.phase.stealPct(), median(setups.wall), loop.rotationTuples()/wallRot, kinds/wallRot,
		finiteMS(quantile(lat, 0.5), wall), finiteMS(quantile(lat, 0.99), wall))
	rep.printf("measured %.2f s: %d requests in %d rotations, %d result tuples, process CPU %.2f s, live heap at start %.1f MB; set-ups %s",
		wall, len(lat), loop.rotations, loop.tuples, loop.phase.cpuSeconds(), loop.phase.liveStartMB(), setups)
	for _, k := range loop.kinds {
		rep.printf("  kind %-40q n=%-4d p50 %9.3f ms wall %9.3f ms CPU  tuples/req=%d", k.name, len(k.lat), median(k.lat), median(k.cpu), k.wantTup)
	}
}

// wallNote prints the wall-clock metrics beside the gated CPU-time ones.
// They are what a client of the service waits for, but on a shared host
// they measure the host as much as the program: on a shared two-CPU
// virtual machine the hypervisor gave other guests 1% to 45% of the
// machine's CPU time (steal) from one run to the next, which moved
// wall-clock throughput by up to 2.5 times, while CPU time, from which
// the kernel leaves steal out, moved far less.
const wallNote = "wall clock (not gated; host steal %.1f%% of the machine's CPU time): setup_wall_s %.4f s, tuples_per_s %.1f 1/s, queries_per_s %.4f 1/s, query_p50_ms %.3f ms, query_p99_ms %.3f ms"

// finiteMS reports a latency quantile that reached a failed request as
// the length of the whole measured phase: it missed any limit.
func finiteMS(v, wallS float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return wallS * 1000
	}
	return v
}

func fmtList(xs []float64) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%.3f", x)
	}
	return s
}
