// Command perfbench is the end-to-end, layer-attributed benchmark of the
// TP set-operation service. One process starts the real server.Handler
// behind a loopback HTTP listener, drives one workload against it with at
// most two client connections, checks every answer, and prints every
// metric by name with its unit. The last line of standard output is the
// JSON result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
// with -trace 1 the per-layer metrics, taken in a separate traced run that
// replays each request kind through the layers' public functions.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload stream-scan --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh compare -parent DIR -change DIR
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

//go:embed spec.json
var specJSON []byte

// spec mirrors the parts of spec.json the benchmark runs from.
type spec struct {
	SetupRepeats int `json:"setup_repeats"`
	Workloads    struct {
		Stream struct {
			Queries  []string `json:"queries"`
			Tuples   int      `json:"tuples"`
			Facts    int      `json:"facts"`
			Stations int      `json:"stations"`
		} `json:"stream-scan"`
		Sparse struct {
			Queries        []string `json:"queries"`
			Tuples         int      `json:"tuples"`
			Facts          int      `json:"facts"`
			RepeatingK     int      `json:"repeating_k"`
			RepeatingFacts int      `json:"repeating_facts"`
		} `json:"sparse-compute"`
		Point struct {
			RatePerS        float64 `json:"rate_per_s"`
			WarmupS         float64 `json:"warmup_s"`
			PutShare        float64 `json:"put_share"`
			ZipfS           float64 `json:"zipf_s"`
			MediumRelations int     `json:"medium_relations"`
			MediumTuples    int     `json:"medium_tuples"`
			MediumFacts     int     `json:"medium_facts"`
			SmallRelations  int     `json:"small_relations"`
			SmallTuples     int     `json:"small_tuples"`
			SmallFacts      int     `json:"small_facts"`
			FlushPolicy     string  `json:"flush_policy"`
		} `json:"point-mixed"`
	} `json:"workloads"`
}

// config is one invocation of a workload.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // checkout root; every file the run writes is under root/.bench_build
	spec     spec
}

func (c config) scratchDir() string { return filepath.Join(c.root, ".bench_build") }

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what a workload run hands back: counts, the metrics of the
// requested kind, and human-readable lines printed before the result.
type report struct {
	attempted int
	failed    int
	wrong     []string // descriptions of wrong answers; any makes the run fail
	metrics   map[string]metric
	lines     []string
	stamp     map[string]string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

func (r *report) printf(format string, a ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, a...))
}

// wrongf records a wrong answer; wrong answers also count as failed.
func (r *report) wrongf(format string, a ...any) {
	r.failed++
	if len(r.wrong) < 20 {
		r.wrong = append(r.wrong, fmt.Sprintf(format, a...))
	}
}

var workloads = map[string]func(config) (*report, error){
	"stream-scan":    runStream,
	"sparse-compute": runSparse,
	"point-mixed":    runPoint,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(2)
		}
		return
	}
	var c config
	var traceFlag int
	flag.StringVar(&c.workload, "workload", "", "workload: stream-scan, sparse-compute or point-mixed")
	flag.Int64Var(&c.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&c.seconds, "seconds", 20, "length of the measured phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.StringVar(&c.root, "root", ".", "checkout root; run records go to ROOT/.bench_build")
	flag.Parse()
	c.trace = traceFlag != 0
	if err := json.Unmarshal(specJSON, &c.spec); err != nil {
		fail(fmt.Errorf("decoding spec.json: %v", err))
	}
	run, ok := workloads[c.workload]
	if !ok || c.seconds <= 0 {
		fail(fmt.Errorf("usage: perfbench --workload {stream-scan|sparse-compute|point-mixed} --seed N --seconds S --trace {0|1}"))
	}
	if err := os.MkdirAll(filepath.Join(c.scratchDir(), "tmp"), 0o755); err != nil {
		fail(err)
	}
	rep, err := run(c)
	if err != nil {
		fail(err)
	}
	want := endToEndMetrics
	if c.trace {
		want = nil
		for _, m := range layerMetrics {
			want = append(want, m.name)
		}
	}
	if err := sameNames(rep.metrics, want); err != nil {
		fail(err)
	}
	rep.stamp = stamp(c)
	res := result{
		Correct:   len(rep.wrong) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}
	printReport(c, rep)
	if err := writeRecord(c, rep, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing run record:", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		for _, w := range rep.wrong {
			fmt.Fprintln(os.Stderr, "wrong answer:", w)
		}
		os.Exit(1)
	}
}

// endToEndMetrics are the end-to-end metrics of BENCHMARK.json.
var endToEndMetrics = []string{"setup_s", "tuples_per_cpu_s", "queries_per_cpu_s", "heap_peak_mb"}

// sameNames checks that a run reports exactly the declared metrics.
func sameNames(got map[string]metric, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("run reports %d metrics, BENCHMARK.json declares %d", len(got), len(want))
	}
	for _, n := range want {
		if _, ok := got[n]; !ok {
			return fmt.Errorf("run does not report metric %q", n)
		}
	}
	return nil
}

var started = time.Now()

// progress logs a stage of the run to standard error.
func progress(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "[%6.1fs] %s\n", time.Since(started).Seconds(), fmt.Sprintf(format, a...))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// printReport writes the human-readable part of the output: the stamp,
// the workload's own lines and every metric with its unit.
func printReport(c config, rep *report) {
	keys := make([]string, 0, len(rep.stamp))
	for k := range rep.stamp {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, " %s=%s", k, rep.stamp[k])
	}
	fmt.Printf("stamp:%s\n", sb.String())
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	kind := "end-to-end"
	if c.trace {
		kind = "per-layer"
	}
	fmt.Printf("%s metrics of %s (seed %d):\n", kind, c.workload, c.seed)
	for _, n := range names {
		m := rep.metrics[n]
		fmt.Printf("  %-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	frac := 0.0
	if rep.attempted > 0 {
		frac = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Printf("  %-40s %14.6g %s  (%d of %d attempted)\n", "failed_frac", frac, "ratio", rep.failed, rep.attempted)
}

// stamp identifies the machine, toolchain, code and settings of a run.
func stamp(c config) map[string]string {
	s := map[string]string{
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"go":         runtime.Version(),
		"commit":     "unknown",
		"seed":       fmt.Sprint(c.seed),
		"workload":   c.workload,
		"trace":      fmt.Sprint(c.trace),
		"seconds":    fmt.Sprint(c.seconds),
		"flush":      c.spec.Workloads.Point.FlushPolicy,
		"datadir_fs": fsType(filepath.Join(c.scratchDir(), "tmp")),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				s["commit"] = kv.Value
			case "vcs.modified":
				if kv.Value == "true" {
					s["commit_modified"] = "true"
				}
			}
		}
	}
	return s
}

// record is one run as the compare mode reads it back.
type record struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Trace    bool              `json:"trace"`
	Time     string            `json:"time"`
	Stamp    map[string]string `json:"stamp"`
	Result   result            `json:"result"`
}

// writeRecord keeps the run under .bench_build/results for the compare
// mode; the contract's stdout line cannot carry the stamp.
func writeRecord(c config, rep *report, res result) error {
	dir := filepath.Join(c.scratchDir(), "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	now := time.Now()
	rec := record{Workload: c.workload, Seed: c.seed, Trace: c.trace,
		Time: now.UTC().Format(time.RFC3339), Stamp: rep.stamp, Result: res}
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	trace := 0
	if c.trace {
		trace = 1
	}
	name := fmt.Sprintf("%s.seed%d.trace%d.%d.json", c.workload, c.seed, trace, now.UnixNano())
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
