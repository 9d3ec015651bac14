package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// The compare mode reads the run records two sets of runs left under
// .bench_build/results (copy each side's directory away between them)
// and labels every end-to-end metric of every workload against the
// bounds of BENCHMARK.json:
//
//   - improved: over at least ten pairs, the change wins at least nine
//     tenths of them (ties count for neither) and the medians differ by
//     more than the parent's own quartile spread;
//   - unresolved: the parent's quartile spread is wider than the bound
//     and not every change run beats every parent run;
//   - worse: the change's median is worse than the parent's by more than
//     the bound;
//   - unchanged: otherwise.
//
// Runs are paired by seed where both sides ran it, otherwise in order.
// Metrics are taken from correct runs only, but every run counts toward
// its side's health: runs with a wrong answer, and failed requests over
// attempted ones. Each workload's health is printed, and when the change
// has more wrong runs or a higher failed fraction than the parent, no
// metric of that workload is labelled improved and every row is flagged.
// Per-layer metrics (traced runs) are listed with medians only.

// benchFile is the part of BENCHMARK.json the compare mode reads.
type benchFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func compareMain(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	parentDir := fs.String("parent", "", "directory of the parent's run records")
	changeDir := fs.String("change", "", "directory of the change's run records")
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition with the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parentDir == "" || *changeDir == "" {
		return fmt.Errorf("usage: perfbench compare -parent DIR -change DIR [-bench BENCHMARK.json]")
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		return err
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("%s: %w", *benchPath, err)
	}
	parent, err := readRecords(*parentDir)
	if err != nil {
		return err
	}
	change, err := readRecords(*changeDir)
	if err != nil {
		return err
	}
	workloads := map[string]bool{}
	for _, r := range append(append([]record(nil), parent...), change...) {
		workloads[r.Workload] = true
	}
	names := make([]string, 0, len(workloads))
	for w := range workloads {
		names = append(names, w)
	}
	sort.Strings(names)
	fmt.Printf("%-15s %-16s %12s %21s %12s %21s %6s %7s  %s\n",
		"workload", "metric", "parent p50", "parent q1..q3", "change p50", "change q1..q3", "won", "delta", "label")
	for _, w := range names {
		pw, cw := runsOf(parent, w, false), runsOf(change, w, false)
		ph, ch := healthOf(pw), healthOf(cw)
		fmt.Printf("%-15s health: parent %s; change %s\n", w, ph, ch)
		failsMore := ch.worseThan(ph)
		pw, cw = correctRuns(pw), correctRuns(cw)
		for _, m := range bf.EndToEnd {
			pv, cv := values(pw, m.Name), values(cw, m.Name)
			if len(pv) == 0 || len(cv) == 0 {
				fmt.Printf("%-15s %-16s missing correct runs (parent %d, change %d)\n", w, m.Name, len(pv), len(cv))
				continue
			}
			lower := m.Better == "lower"
			label, won, delta := judge(pw, cw, m.Name, lower, m.Bound)
			if failsMore {
				if label == "improved" {
					label = "not improved"
				}
				label += " ! change fails more"
			}
			fmt.Printf("%-15s %-16s %12.4g %10.4g..%-10.4g %12.4g %10.4g..%-10.4g %5.0f%% %+6.1f%%  %s\n",
				w, m.Name, median(pv), q1(pv), q3(pv), median(cv), q1(cv), q3(cv), 100*won, 100*delta, label)
		}
		pt, ct := correctRuns(runsOf(parent, w, true)), correctRuns(runsOf(change, w, true))
		if len(pt) > 0 && len(ct) > 0 {
			for _, n := range sortedMetricNames(pt) {
				fmt.Printf("%-15s %-40s parent %12.4g  change %12.4g  (per-layer, medians of %d and %d traced runs)\n",
					w, n, median(values(pt, n)), median(values(ct, n)), len(pt), len(ct))
			}
		}
	}
	return nil
}

func readRecords(dir string) ([]record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []record
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out, nil
}

// health is how often one side's runs of a workload went wrong.
type health struct {
	runs, incorrect   int
	attempted, failed int
}

func healthOf(rs []record) health {
	var h health
	for _, r := range rs {
		h.runs++
		if !r.Result.Correct {
			h.incorrect++
		}
		h.attempted += r.Result.Attempted
		h.failed += r.Result.Failed
	}
	return h
}

func (h health) failedFrac() float64 { return safeDiv(float64(h.failed), float64(h.attempted)) }

// worseThan reports whether h has more wrong runs or a higher failed
// fraction than parent.
func (h health) worseThan(parent health) bool {
	return h.incorrect > parent.incorrect || h.failedFrac() > parent.failedFrac()
}

func (h health) String() string {
	return fmt.Sprintf("%d runs, %d with a wrong answer, %d of %d requests failed (%.4g)",
		h.runs, h.incorrect, h.failed, h.attempted, h.failedFrac())
}

func correctRuns(rs []record) []record {
	var out []record
	for _, r := range rs {
		if r.Result.Correct {
			out = append(out, r)
		}
	}
	return out
}

func runsOf(rs []record, workload string, trace bool) []record {
	var out []record
	for _, r := range rs {
		if r.Workload == workload && r.Trace == trace {
			out = append(out, r)
		}
	}
	return out
}

func values(rs []record, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Result.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func sortedMetricNames(rs []record) []string {
	seen := map[string]bool{}
	for _, r := range rs {
		for n := range r.Result.Metrics {
			seen[n] = true
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// pairs matches parent and change runs by seed, then the rest in order.
func pairs(parent, change []record, metric string) [][2]float64 {
	var out [][2]float64
	used := make([]bool, len(change))
	var restP []float64
	for _, p := range parent {
		matched := false
		for j, c := range change {
			if !used[j] && c.Seed == p.Seed {
				used[j] = true
				out = append(out, [2]float64{p.Result.Metrics[metric].Value, c.Result.Metrics[metric].Value})
				matched = true
				break
			}
		}
		if !matched {
			restP = append(restP, p.Result.Metrics[metric].Value)
		}
	}
	var restC []float64
	for j, c := range change {
		if !used[j] {
			restC = append(restC, c.Result.Metrics[metric].Value)
		}
	}
	for i := 0; i < len(restP) && i < len(restC); i++ {
		out = append(out, [2]float64{restP[i], restC[i]})
	}
	return out
}

// judge labels one metric; delta is the change's median relative to the
// parent's, signed so that positive is worse.
func judge(parent, change []record, metric string, lower bool, bound float64) (label string, won, delta float64) {
	pv, cv := values(parent, metric), values(change, metric)
	better := func(c, p float64) bool {
		if lower {
			return c < p
		}
		return c > p
	}
	wins, total := 0, 0
	for _, pr := range pairs(parent, change, metric) {
		total++
		if better(pr[1], pr[0]) {
			wins++
		}
	}
	if total > 0 {
		won = float64(wins) / float64(total)
	}
	pm, cm := median(pv), median(cv)
	delta = safeDiv(cm-pm, pm)
	if !lower {
		delta = -delta
	}
	iqr := q3(pv) - q1(pv)
	allBetter := true
	for _, c := range cv {
		for _, p := range pv {
			if !better(c, p) {
				allBetter = false
			}
		}
	}
	diff := cm - pm
	if diff < 0 {
		diff = -diff
	}
	switch {
	case won >= 0.9 && diff > iqr && delta < 0 && total >= 10:
		return "improved", won, delta
	case won >= 0.9 && diff > iqr && delta < 0:
		return "unresolved (fewer than 10 pairs)", won, delta
	case safeDiv(iqr, pm) > bound && !allBetter:
		return "unresolved", won, delta
	case delta > bound:
		return "worse", won, delta
	}
	return "unchanged", won, delta
}

// q1 and q3 are the first and third quartiles by the method of Python's
// statistics.quantiles(xs, n=4) ("exclusive"), the one the spreads of
// this benchmark are judged by.
func q1(xs []float64) float64 { return exclusiveQuartile(xs, 1) }
func q3(xs []float64) float64 { return exclusiveQuartile(xs, 3) }

func exclusiveQuartile(xs []float64, i int) float64 {
	n := len(xs)
	if n < 2 {
		return median(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := n + 1
	j := i * m / 4
	j = max(1, min(j, n-1))
	delta := i*m - j*4
	return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
}
