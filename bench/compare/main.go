// Command compare reads two sets of benchmark result files, A (the parent)
// and B (the change), and reports per workload and metric each side's
// median and quartiles, how many paired runs B won, and a verdict against
// the metric's bound in BENCHMARK.json:
//
//   - improved: B won at least 9 of every 10 pairs and the medians differ,
//     in B's favour, by more than A's interquartile range;
//   - regressed: B's median is worse than A's by more than the bound;
//   - unresolved: either side's interquartile range, as a share of its
//     median, is wider than the bound, and B did not beat every A run;
//   - no-worse: anything else.
//
// Per-layer metrics have no bound: they are either improved or "-".
// Runs pair in start order within each workload and mode, so alternate
// the two commits when recording them.
//
//	go run ./bench/compare [-spec BENCHMARK.json] A B
//
// A and B are result directories, files, or glob patterns. The exit status
// is 1 when any metric regressed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"

	"taskprune/bench/internal/result"
)

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func main() {
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark definition with each metric's direction and bound")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-spec BENCHMARK.json] A B")
		os.Exit(2)
	}
	code, err := run(*specPath, flag.Arg(0), flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(specPath, pathA, pathB string) (int, error) {
	b, err := os.ReadFile(specPath)
	if err != nil {
		return 0, err
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return 0, fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := load(pathA)
	if err != nil {
		return 0, err
	}
	bs, err := load(pathB)
	if err != nil {
		return 0, err
	}
	keys := make([]groupKey, 0, len(a))
	for k := range a {
		if _, ok := bs[k]; ok {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return 0, fmt.Errorf("no workload has results on both sides")
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return !keys[i].traced && keys[j].traced
	})

	code := 0
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3]\tB median [q1, q3]\tB wins\tverdict")
	for _, k := range keys {
		catalogue := sp.EndToEnd
		if k.traced {
			catalogue = sp.PerLayer
		}
		for _, m := range catalogue {
			xs, ys := values(a[k], m.Name), values(bs[k], m.Name)
			if len(xs) == 0 || len(ys) == 0 {
				continue
			}
			wins, pairs := pairWins(m, xs, ys)
			v := verdict(m, xs, ys)
			if v == "regressed" {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%d/%d\t%s\n", k.workload, m.Name, m.Unit, summary(xs), summary(ys), wins, pairs, v)
		}
	}
	return code, tw.Flush()
}

type groupKey struct {
	workload string
	traced   bool
}

// load reads every result file under path (a directory, file or glob),
// grouped by workload and mode and sorted by start time. Runs marked
// invalid are left out.
func load(path string) (map[groupKey][]result.File, error) {
	pattern := path
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		pattern = filepath.Join(path, "*.json")
	}
	names, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no result files match %s", pattern)
	}
	out := make(map[groupKey][]result.File)
	for _, n := range names {
		f, err := result.Read(n)
		if err != nil {
			return nil, err
		}
		if len(f.Invalid) > 0 {
			fmt.Fprintf(os.Stderr, "compare: leaving out %s: %v\n", n, f.Invalid)
			continue
		}
		k := groupKey{f.Workload, f.Traced}
		out[k] = append(out[k], f)
	}
	for _, fs := range out {
		sort.Slice(fs, func(i, j int) bool { return fs[i].Started < fs[j].Started })
	}
	return out, nil
}

func values(fs []result.File, name string) []float64 {
	var xs []float64
	for _, f := range fs {
		if m, ok := f.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

func summary(xs []float64) string {
	q1, q2, q3 := result.Quartiles(xs)
	return fmt.Sprintf("%.6g [%.6g, %.6g]", q2, q1, q3)
}

// gain is how much better y reads than x in the metric's direction.
func gain(m specMetric, x, y float64) float64 {
	if m.Better == "higher" {
		return y - x
	}
	return x - y
}

// pairWins counts the pairs (run i of A, run i of B) that B won; ties
// count for neither side.
func pairWins(m specMetric, xs, ys []float64) (wins, pairs int) {
	pairs = min(len(xs), len(ys))
	for i := 0; i < pairs; i++ {
		if gain(m, xs[i], ys[i]) > 0 {
			wins++
		}
	}
	return wins, pairs
}

func verdict(m specMetric, xs, ys []float64) string {
	a1, a2, a3 := result.Quartiles(xs)
	b1, b2, b3 := result.Quartiles(ys)
	wins, pairs := pairWins(m, xs, ys)
	if pairs > 0 && 10*wins >= 9*pairs && gain(m, a2, b2) > a3-a1 {
		return "improved"
	}
	if m.Bound == nil {
		return "-"
	}
	bound := *m.Bound
	spread := math.Max((a3-a1)/math.Abs(a2), (b3-b1)/math.Abs(b2))
	if !(spread <= bound) {
		if allBetter(m, xs, ys) {
			return "no-worse"
		}
		return "unresolved"
	}
	if -gain(m, a2, b2) > bound*math.Abs(a2) {
		return "regressed"
	}
	return "no-worse"
}

// allBetter reports whether every B run reads better than every A run.
func allBetter(m specMetric, xs, ys []float64) bool {
	for _, x := range xs {
		for _, y := range ys {
			if gain(m, x, y) <= 0 {
				return false
			}
		}
	}
	return true
}
