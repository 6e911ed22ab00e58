// Command bench is the repository's benchmark. It runs fixed workloads —
// batch trials of the simulator and the cluster engine, and the serve
// daemon under open-loop HTTP load — and prints end-to-end metrics, or with
// -trace the per-layer breakdown, as "workload metric value unit" lines
// followed by one JSON summary line per workload. Each run also lands in
// the -out directory as a result file that bench/compare reads.
//
//	go run ./bench -seed 1                     # every workload
//	go run ./bench -workload pam-34k -seed 2 -trace
//
// Every workload runs in child processes of its own, so set-up is cold and
// peak memory belongs to that workload alone. See bench/README.md.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"taskprune/bench/internal/result"
)

// setupRuns is how many cold set-ups an untraced run measures; setup_s is
// their median.
const setupRuns = 9

// childTimeout bounds one child process.
const childTimeout = 150 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string

	child string // "setup" or "run" in a child process
	spans string // child: where a traced run writes its spans
}

func main() {
	mainStart := time.Now()
	os.Exit(run(os.Args[1:], mainStart))
}

func run(args []string, mainStart time.Time) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: every workload)")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 10, "run length: batch work and serve load are sized to about this many seconds")
	fs.BoolVar(&o.trace, "trace", false, "traced run: print per-layer metrics instead of end-to-end ones (-trace or -trace 1)")
	fs.StringVar(&o.out, "out", filepath.Join("bench", "out"), "directory for result files and spans")
	fs.StringVar(&o.child, "child", "", "internal: run as a child process (setup or run)")
	fs.StringVar(&o.spans, "spans", "", "internal: spans file of a traced child")
	if err := fs.Parse(boolFlagValues(args, "trace")); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: usage: bench [-workload W] [-seed N] [-seconds S] [-trace] [-out DIR]")
		return 2
	}
	defs := workloads
	if o.workload != "" {
		w, err := lookupWorkload(o.workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		defs = []workloadDef{w}
	}
	if o.child != "" {
		return runChild(o, defs[0], mainStart)
	}

	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	env := stampEnv()
	code := 0
	for _, w := range defs {
		f, err := measure(w, o, env)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		if err := report(f, o.out); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if !f.Correct {
			code = 1
		}
	}
	return code
}

// boolFlagValues rewrites "-name 0|1|true|false" as "-name=value", so the
// boolean flag also takes its value as a separate argument.
func boolFlagValues(args []string, name string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-"+name || a == "--"+name) && i+1 < len(args) {
			switch args[i+1] {
			case "0", "1", "true", "false":
				a += "=" + args[i+1]
				i++
			}
		}
		out = append(out, a)
	}
	return out
}

// runChild measures one run in this process and prints its childResult.
func runChild(o options, w workloadDef, mainStart time.Time) int {
	res, err := execute(w.params(o.seed, o.seconds), w.serve, o.trace, mainStart, o.child == "setup", o.spans)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

func execute(p Params, serve, traced bool, mainStart time.Time, setupOnly bool, spansPath string) (childResult, error) {
	if serve {
		return runServe(p, traced, mainStart, setupOnly, spansPath)
	}
	return runBatch(p, traced, mainStart, setupOnly, spansPath)
}

// measure runs one workload in child processes and assembles its result.
// Untraced: setupRuns-1 set-up-only children, then the measured child.
// Traced: an untraced and a traced child on the same inputs, whose
// simulated statistics must agree; the gap between their arrival rates is
// the tracing overhead.
func measure(w workloadDef, o options, env result.Env) (result.File, error) {
	f := result.File{
		Workload: w.name,
		Seed:     o.seed,
		Traced:   o.trace,
		Started:  time.Now().UTC().Format(time.RFC3339Nano),
		Env:      env,
		Params:   w.params(o.seed, o.seconds),
	}
	if !o.trace {
		var setups []float64
		for i := 1; i < setupRuns; i++ {
			c, _, err := spawn(o, w, "setup", false, "")
			if err != nil {
				return f, err
			}
			setups = append(setups, c.SetupS)
		}
		c, rssMB, err := spawn(o, w, "run", false, "")
		if err != nil {
			return f, err
		}
		f.Line, f.FailedChecks = endToEndLine(c, append(setups, c.SetupS), rssMB)
		f.Invalid = c.Invalid
		return f, nil
	}
	u, _, err := spawn(o, w, "run", false, "")
	if err != nil {
		return f, err
	}
	t, _, err := spawn(o, w, "run", true, filepath.Join(o.out, fileStem(f)+".spans.csv"))
	if err != nil {
		return f, err
	}
	f.Line, f.FailedChecks = perLayerLine(u, t)
	f.Invalid = append(u.Invalid, t.Invalid...)
	return f, nil
}

// endToEndLine assembles an untraced run's summary and failed checks.
func endToEndLine(c childResult, setups []float64, rssMB float64) (result.Line, []string) {
	_, setup, _ := result.Quartiles(setups)
	vals := map[string]float64{"setup_s": setup, "peak_rss_mb": rssMB}
	for k, v := range c.Metrics {
		vals[k] = v
	}
	return summarize(endToEnd, vals, c.Attempted, c.Failed, c.FailedChecks)
}

// perLayerLine assembles a traced run's summary and failed checks from its
// untraced twin u and the traced run t.
func perLayerLine(u, t childResult) (result.Line, []string) {
	checks := append(append([]string(nil), u.FailedChecks...), t.FailedChecks...)
	if u.Stats != t.Stats {
		checks = append(checks, "traced and untraced simulated statistics differ")
	}
	vals := map[string]float64{
		"trace.overhead_pct": 100 * (u.Metrics["arrivals_per_s"]/t.Metrics["arrivals_per_s"] - 1),
	}
	for k, v := range t.Metrics {
		vals[k] = v
	}
	return summarize(perLayer, vals, t.Attempted, t.Failed, checks)
}

// summarize selects the catalogue's metrics from vals. A metric the
// workload does not measure (a layer it does not exercise) reads 0; one
// that is not finite fails the run.
func summarize(catalogue []metricDef, vals map[string]float64, attempted, failed int, checks []string) (result.Line, []string) {
	checks = append([]string(nil), checks...)
	l := result.Line{Attempted: attempted, Failed: failed, Metrics: make(map[string]result.Metric, len(catalogue))}
	for _, m := range catalogue {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			checks = append(checks, fmt.Sprintf("%s is %v", m.name, v))
			v = 0
		}
		l.Metrics[m.name] = result.Metric{Value: v, Unit: m.unit}
	}
	l.Correct = len(checks) == 0
	return l, checks
}

// childResult is what one child process measured. The child prints it as
// JSON on the last line of its standard output.
type childResult struct {
	SetupS       float64  `json:"setup_s"`
	Attempted    int      `json:"attempted"`
	Failed       int      `json:"failed"`
	FailedChecks []string `json:"failed_checks,omitempty"`
	// Invalid says why the run's timings are not to be trusted (serve
	// beyond its latency limit); unlike a failed check it says nothing
	// about the program's outputs.
	Invalid []string `json:"invalid,omitempty"`
	// Stats is the run's simulated statistics printed exactly; traced and
	// untraced runs of a batch workload must agree on it. Empty for serve,
	// whose simulated clock depends on how requests batch.
	Stats   string             `json:"stats,omitempty"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// spawn runs this program again as a child and returns what it measured
// and its peak resident memory in MiB.
func spawn(o options, w workloadDef, role string, traced bool, spans string) (childResult, float64, error) {
	self, err := os.Executable()
	if err != nil {
		return childResult{}, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "-child", role, "-workload", w.name,
		"-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		fmt.Sprintf("-trace=%t", traced), "-spans", spans)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return childResult{}, 0, fmt.Errorf("%s child: %w", role, err)
	}
	var c childResult
	if err := json.Unmarshal(stdout.Bytes(), &c); err != nil {
		return childResult{}, 0, fmt.Errorf("%s child output: %w", role, err)
	}
	var rssMB float64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return c, rssMB, nil
}

func fileStem(f result.File) string {
	mode := "untraced"
	if f.Traced {
		mode = "traced"
	}
	stamp := strings.NewReplacer(":", "", "-", "").Replace(f.Started)
	return fmt.Sprintf("%s.seed%d.%s.%s", f.Workload, f.Seed, mode, stamp)
}

// report prints one workload's metrics and writes its result file.
func report(f result.File, dir string) error {
	catalogue := endToEnd
	if f.Traced {
		catalogue = perLayer
	}
	w := bufio.NewWriter(os.Stdout)
	for _, m := range catalogue {
		fmt.Fprintf(w, "%s %s %.6g %s\n", f.Workload, m.name, f.Metrics[m.name].Value, m.unit)
	}
	fmt.Fprintf(w, "%s attempted %d failed %d correct %t\n", f.Workload, f.Attempted, f.Failed, f.Correct)
	for _, c := range f.FailedChecks {
		fmt.Fprintf(w, "%s FAILED CHECK: %s\n", f.Workload, c)
	}
	for _, c := range f.Invalid {
		fmt.Fprintf(w, "%s INVALID RUN: %s\n", f.Workload, c)
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, fileStem(f)+".json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	last, err := json.Marshal(f.Line)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", last)
	return w.Flush()
}

// stampEnv records the machine and commit results come from.
func stampEnv() result.Env {
	env := result.Env{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		Commit:     "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// Only a checkout with its own .git names a commit; git would otherwise
	// search the directories above for an unrelated repository.
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			env.Commit = strings.TrimSpace(string(out))
		}
	}
	return env
}
