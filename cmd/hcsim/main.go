// Command hcsim regenerates the paper's evaluation figures (and the
// repository's ablation studies) from the command line.
//
// Usage:
//
//	hcsim -exp fig7                 # regenerate Figure 7 at paper scale
//	hcsim -exp all -trials 10       # every figure, 10 trials per point
//	hcsim -exp single -heuristic PAM -level 34000
//	hcsim -exp single -heuristic PAM -scenario churn.json
//	hcsim -exp single -heuristic PAM -tasks 1000000 -stream
//	hcsim -exp single -heuristic PAM -dcs 4 -route pet-aware
//	hcsim -exp single -heuristic PAM -dcs 4 -route round-robin -dcpar  # per-DC goroutines (round-robin only)
//	hcsim -exp scen-fault           # fleet-churn fault-tolerance study
//	hcsim -exp cluster-fault        # sharded whole-DC outage study
//	hcsim -exp fig5 -csv fig5.csv   # also export CSV
//	hcsim -exp single -heuristic PAM -telemetry out.csv -sample-every 50
//	hcsim -exp single -heuristic PAM -phases
//	hcsim -exp single -heuristic PAM -tasks 1000000 -stream -metrics-addr :9090
//	hcsim serve -config fleet.json  # long-running scheduling daemon (see serve.go)
//
// Run with an unknown -exp name to list every registered experiment.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"taskprune/internal/cluster"
	"taskprune/internal/experiments"
	"taskprune/internal/report"
	"taskprune/internal/scenario"
	"taskprune/internal/simulator"
	"taskprune/internal/stats"
	"taskprune/internal/telemetry"
	"taskprune/internal/workload"
)

// experimentOrder is the single source of experiment names: it drives the
// registry lookup, the -exp all sweep (in this order), and the listing an
// unknown -exp name prints. Add a new experiment here and nowhere else.
var experimentOrder = []struct {
	name string
	run  func(experiments.Options) (*experiments.Figure, error)
}{
	{"fig4", experiments.Fig4},
	{"fig5", experiments.Fig5},
	{"fig6", experiments.Fig6},
	{"fig7", experiments.Fig7},
	{"fig8", experiments.Fig8},
	{"fig9", experiments.Fig9},
	{"abl-compact", experiments.AblationCompaction},
	{"abl-eq7", experiments.AblationEq7},
	{"abl-scenario", experiments.AblationScenario},
	{"abl-arrival", experiments.AblationArrivalVariance},
	{"abl-moc", experiments.AblationMOCThreshold},
	{"abl-drift", experiments.AblationPETDrift},
	{"ext-approx", experiments.ExtensionApproximate},
	{"scen-fault", experiments.ScenarioFaultTolerance},
	{"cluster-fault", experiments.ClusterFaultTolerance},
	{"detect-lag", experiments.DetectionLag},
	{"checkpoint", experiments.CheckpointRestore},
	{"stale-pet", experiments.StalePET},
	{"belief-converge", experiments.BeliefConvergence},
}

// registry indexes experimentOrder by name; "single" and "all" are handled
// separately in main.
var registry = func() map[string]func(experiments.Options) (*experiments.Figure, error) {
	m := make(map[string]func(experiments.Options) (*experiments.Figure, error), len(experimentOrder))
	for _, e := range experimentOrder {
		m[e.name] = e.run
	}
	return m
}()

// allNames returns the -exp all sweep in declaration order.
func allNames() []string {
	names := make([]string, 0, len(experimentOrder))
	for _, e := range experimentOrder {
		names = append(names, e.name)
	}
	return names
}

// registeredNames returns every runnable -exp value, sorted, including the
// special modes.
func registeredNames() []string {
	names := append(allNames(), "single", "all")
	sort.Strings(names)
	return names
}

func main() {
	// Subcommand dispatch happens before flag.Parse: `hcsim serve` has its
	// own flag set (the experiment flags make no sense for a daemon).
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		os.Exit(runServe(os.Args[2:]))
	}
	var (
		exp       = flag.String("exp", "fig7", "experiment to run (see -exp help: any unknown name lists them)")
		trials    = flag.Int("trials", 30, "workload trials per configuration point")
		tasks     = flag.Int("tasks", 800, "tasks per trial")
		seed      = flag.Int64("seed", 1, "base seed (trial k uses seed+k)")
		beta      = flag.Float64("beta", 2.0, "deadline slack coefficient β")
		varFrac   = flag.Float64("arrival-var", 0.10, "arrival gamma variance as a fraction of the mean")
		workers   = flag.Int("workers", 0, "parallel trial workers (0 = GOMAXPROCS)")
		csvPath   = flag.String("csv", "", "also write results as CSV to this file")
		plot      = flag.Bool("plot", false, "also render results as an ASCII bar chart")
		heuristic = flag.String("heuristic", "PAM", "heuristic for -exp single")
		level     = flag.Float64("level", workload.Level34k, "oversubscription level for -exp single")
		scenPath  = flag.String("scenario", "", "JSON fleet-scenario file for -exp single (failures, recoveries, degradations, drift ramps, dc outages, bursts)")
		stream    = flag.Bool("stream", false, "pull arrivals from the constant-memory streaming source (per-type RNG splits; workloads differ from the replay schedule at equal seeds), enabling -tasks far past materializable scale")
		dcs       = flag.Int("dcs", 1, "shard -exp single across this many datacenters (1 = the plain single-fleet engine)")
		route     = flag.String("route", "round-robin", "dispatch policy for -dcs > 1: "+strings.Join(cluster.PolicyNames(), ", "))
		dcpar     = flag.Bool("dcpar", false, "step the -dcs datacenters on per-DC goroutines through the wide-window driver (byte-identical results; requires -dcs > 1 and -route round-robin)")
		belief    = flag.String("belief", "", "mapper knowledge model for -exp single: oracle, frozen, or online (empty = the scenario's, else oracle)")

		telemetryPath = flag.String("telemetry", "", "write per-shard telemetry time series to this file after an -exp single run (.json = JSON series, anything else = CSV)")
		sampleEvery   = flag.Int64("sample-every", telemetry.DefaultSampleEvery, "simulated ticks between telemetry samples")
		phases        = flag.Bool("phases", false, "time the scheduler phases (dispatch/admit/step/eval/convolve) during -exp single and print the breakdown")
		metricsAddr   = flag.String("metrics-addr", "", "serve Prometheus text (/metrics), JSON snapshots (/metrics.json), and pprof on this address during -exp single")
	)
	flag.Parse()
	validateClusterFlags(*exp, *dcs, *route)
	tf := telemetryFlags{Path: *telemetryPath, Every: *sampleEvery, Phases: *phases, Addr: *metricsAddr}
	validateTelemetryFlags(*exp, tf)

	opts := experiments.Options{
		Trials: *trials, Tasks: *tasks, Seed: *seed,
		Workers: *workers, Beta: *beta, VarFrac: *varFrac,
		Streamed: *stream,
	}

	if *exp == "single" {
		var sc *scenario.Scenario
		if *scenPath != "" {
			var err error
			if sc, err = scenario.Load(*scenPath); err != nil {
				fatal(err)
			}
		}
		bp, err := beliefFor(*belief)
		if err != nil {
			fatal(err)
		}
		if *dcs > 1 {
			if err := runCluster(opts, *heuristic, *level, sc, bp, *dcs, *route, *dcpar, tf); err != nil {
				fatal(err)
			}
			return
		}
		if err := runSingle(opts, *heuristic, *level, sc, bp, tf); err != nil {
			fatal(err)
		}
		return
	}

	names := []string{*exp}
	if *exp == "all" {
		names = allNames()
	}
	for _, name := range names {
		run, ok := registry[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "hcsim: unknown experiment %q\nregistered experiments:\n", name)
			for _, n := range registeredNames() {
				fmt.Fprintf(os.Stderr, "  %s\n", n)
			}
			os.Exit(1)
		}
		start := time.Now()
		fig, err := run(opts)
		if err != nil {
			fatal(err)
		}
		tables := tablesFor(name, fig)
		for _, tbl := range tables {
			fmt.Println(tbl.String())
		}
		if *plot {
			fmt.Println(fig.RobustnessChart().String())
		}
		fmt.Printf("(%s finished in %v, %d trials/point)\n\n", name, time.Since(start).Round(time.Millisecond), opts.Trials)
		if *csvPath != "" {
			if err := writeCSV(*csvPath, tables); err != nil {
				fatal(err)
			}
			fmt.Printf("CSV written to %s\n", *csvPath)
		}
	}
}

// validateClusterFlags rejects cluster-flag combinations that would
// otherwise be silently ignored: -dcs/-route/-dcpar outside -exp single,
// a stray -route or -dcpar next to a single-fleet run, a -dcs below 1,
// and an unknown -route name. Each failure explains what the flag needs
// and lists the valid values, then exits 1 — the same contract as an
// unknown -exp name, instead of a run that quietly does something else.
func validateClusterFlags(exp string, dcs int, route string) {
	set := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	var stray []string
	for _, n := range []string{"dcs", "route", "dcpar"} {
		if set[n] {
			stray = append(stray, "-"+n)
		}
	}
	if exp != "single" && len(stray) > 0 {
		fmt.Fprintf(os.Stderr, "hcsim: %s: cluster flags apply only to -exp single (got -exp %s)\n", strings.Join(stray, ", "), exp)
		fmt.Fprintf(os.Stderr, "  hcsim -exp single -dcs 4 -route {%s} [-dcpar]\n", strings.Join(cluster.PolicyNames(), "|"))
		os.Exit(1)
	}
	if exp != "single" {
		return
	}
	if set["dcs"] && dcs < 1 {
		fmt.Fprintf(os.Stderr, "hcsim: -dcs %d: a cluster needs at least one datacenter (1 = the plain single-fleet engine)\n", dcs)
		os.Exit(1)
	}
	if dcs == 1 {
		stray = stray[:0]
		for _, n := range []string{"route", "dcpar"} {
			if set[n] {
				stray = append(stray, "-"+n)
			}
		}
		if len(stray) > 0 {
			fmt.Fprintf(os.Stderr, "hcsim: %s: cluster flags require -dcs > 1; the single-fleet engine has no dispatcher\n", strings.Join(stray, ", "))
			os.Exit(1)
		}
		return
	}
	if _, err := cluster.NewPolicy(route); err != nil {
		fmt.Fprintf(os.Stderr, "hcsim: %v\nregistered dispatch policies:\n", err)
		for _, n := range cluster.PolicyNames() {
			fmt.Fprintf(os.Stderr, "  %s\n", n)
		}
		os.Exit(1)
	}
}

// telemetryFlags bundles the observability knobs for -exp single runs.
type telemetryFlags struct {
	Path   string // time-series export file ("" = none)
	Every  int64  // sampling interval in simulated ticks
	Phases bool   // time scheduler phases and print the breakdown
	Addr   string // live metrics address ("" = no server)
}

// enabled reports whether any probe consumer is wired up — when false the
// simulators run with telemetry fully disabled (nil registry, no-op probes).
func (tf telemetryFlags) enabled() bool {
	return tf.Path != "" || tf.Phases || tf.Addr != ""
}

func (tf telemetryFlags) options() *telemetry.Options {
	if !tf.enabled() {
		return nil
	}
	return &telemetry.Options{SampleEvery: tf.Every}
}

// validateTelemetryFlags rejects observability flags outside -exp single
// and nonsensical sampling intervals, matching validateClusterFlags'
// fail-loudly contract.
func validateTelemetryFlags(exp string, tf telemetryFlags) {
	set := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	var stray []string
	for _, n := range []string{"telemetry", "sample-every", "phases", "metrics-addr"} {
		if set[n] {
			stray = append(stray, "-"+n)
		}
	}
	if exp != "single" && len(stray) > 0 {
		fmt.Fprintf(os.Stderr, "hcsim: %s: telemetry flags apply only to -exp single (got -exp %s)\n", strings.Join(stray, ", "), exp)
		os.Exit(1)
	}
	if set["sample-every"] && tf.Every <= 0 {
		fmt.Fprintf(os.Stderr, "hcsim: -sample-every %d: the sampling interval must be a positive tick count\n", tf.Every)
		os.Exit(1)
	}
	if set["sample-every"] && !tf.enabled() {
		fmt.Fprintf(os.Stderr, "hcsim: -sample-every needs a consumer: combine it with -telemetry, -phases, or -metrics-addr\n")
		os.Exit(1)
	}
}

// startMetricsServer brings up the live export surface and returns the
// server (nil when -metrics-addr is unset).
func startMetricsServer(addr string) (*telemetry.Server, error) {
	if addr == "" {
		return nil, nil
	}
	srv := telemetry.NewServer()
	bound, err := srv.Serve(addr)
	if err != nil {
		return nil, err
	}
	fmt.Printf("metrics: serving http://%s/metrics (+ /metrics.json, /debug/pprof) during the run\n", bound)
	return srv, nil
}

// writeTelemetry exports the per-shard time series, choosing the format by
// file extension (.json = JSON, anything else = CSV).
func writeTelemetry(path string, samplers []telemetry.ScopedSampler) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".json") {
		err = telemetry.WriteSamplersJSON(f, samplers)
	} else {
		err = telemetry.WriteSamplersCSV(f, samplers)
	}
	if err != nil {
		return err
	}
	fmt.Printf("telemetry written to %s (%d shards)\n", path, len(samplers))
	return nil
}

// printPhases renders the merged phase-timer breakdown.
func printPhases(pt *telemetry.PhaseTimer) {
	if pt == nil {
		return
	}
	if err := pt.WriteText(os.Stdout); err != nil {
		fatal(err)
	}
}

func tablesFor(name string, fig *experiments.Figure) []*report.Table {
	switch name {
	case "fig6":
		return []*report.Table{fig.FairnessTable()}
	case "fig8":
		return []*report.Table{fig.CostTable()}
	case "ext-approx":
		return []*report.Table{experiments.QualityTable(fig)}
	default:
		return []*report.Table{fig.RobustnessTable()}
	}
}

// beliefFor parses the -belief flag into a policy (nil when empty: the
// simulator adopts the scenario's policy, defaulting to the oracle).
func beliefFor(name string) (*scenario.BeliefPolicy, error) {
	switch name {
	case "":
		return nil, nil
	case "oracle":
		return &scenario.BeliefPolicy{Kind: scenario.BeliefOracle}, nil
	case "frozen":
		return &scenario.BeliefPolicy{Kind: scenario.BeliefFrozen}, nil
	case "online":
		return &scenario.BeliefPolicy{Kind: scenario.BeliefOnline}, nil
	default:
		return nil, fmt.Errorf("unknown -belief %q (oracle, frozen, online)", name)
	}
}

// singleSource builds the arrival source for one -exp single trial.
func singleSource(opts experiments.Options, level float64, sc *scenario.Scenario) (workload.Source, error) {
	matrix := experiments.SPECPET()
	wcfg := workload.Config{
		NumTasks: opts.Tasks,
		Rate:     workload.RateForLevel(level),
		VarFrac:  opts.VarFrac,
		Beta:     opts.Beta,
	}
	sc.ApplyBursts(&wcfg)
	rng := stats.NewRNG(opts.Seed)
	if opts.Streamed {
		return workload.NewStream(wcfg, matrix, rng)
	}
	return workload.NewSource(wcfg, matrix, rng)
}

// runSingle executes one trial of one heuristic (optionally under a fleet
// scenario) and prints its statistics — the quickest way to poke at the
// system.
func runSingle(opts experiments.Options, name string, level float64, sc *scenario.Scenario, bp *scenario.BeliefPolicy, tf telemetryFlags) error {
	matrix := experiments.SPECPET()
	cfg, err := simulator.ConfigFor(name, matrix)
	if err != nil {
		return err
	}
	cfg.Scenario = sc
	cfg.Belief = bp
	cfg.Telemetry = tf.options()
	if tf.Phases {
		cfg.PhaseTimer = telemetry.NewPhaseTimer()
	}
	src, err := singleSource(opts, level, sc)
	if err != nil {
		return err
	}
	sim, err := simulator.New(cfg)
	if err != nil {
		return err
	}
	srv, err := startMetricsServer(tf.Addr)
	if err != nil {
		return err
	}
	if srv != nil {
		// The single-fleet engine runs on this goroutine, so publishing a
		// snapshot from the sample hook is safe: the handlers only ever
		// read the last published copy.
		sim.TelemetrySampler().OnSample = func(int64) {
			srv.Publish("sim", sim.Telemetry().Snapshot())
		}
	}
	start := time.Now()
	st, err := sim.RunSource(src)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Printf("%s @%s: robustness %.1f%% (completed %d / window %d; dropped %d, missed %d) in %v\n",
		name, workload.LevelLabel(level), st.RobustnessPct, st.Completed, st.Window,
		st.Dropped, st.Missed, elapsed.Round(time.Millisecond))
	if opts.Streamed {
		fmt.Printf("stream: %d tasks pulled at %.0f arrivals/sec (constant-memory source)\n",
			st.Total, float64(st.Total)/elapsed.Seconds())
	}
	if sim.Pruner() != nil {
		fmt.Printf("pruner: %d mapping events, %d pruner drops, %d evictions, final level %.2f\n",
			sim.MappingEvents(), sim.DroppedByPruner(), sim.Evicted(), sim.Pruner().Level())
	}
	if sc != nil {
		fmt.Printf("scenario %q: %d fleet events, %d burst windows, %d tasks requeued by failures\n",
			sc.Name, len(sc.Events), len(sc.Bursts), sim.Requeued())
	}
	if p := sim.CheckpointPolicy(); p != nil {
		fmt.Printf("%s: %d checkpoints written, %d of %d requeues restored from a checkpoint\n",
			p, sim.Checkpoints(), sim.Restored(), sim.Requeued())
	}
	if p := sim.BeliefPolicy(); p != nil {
		fmt.Printf("%s: %d completions observed, %d belief refreshes\n",
			p, sim.Belief().Observations(), sim.Belief().Refreshes())
	}
	if srv != nil {
		srv.Publish("sim", sim.Telemetry().Snapshot())
	}
	if tf.Path != "" {
		if err := writeTelemetry(tf.Path, []telemetry.ScopedSampler{{Scope: "sim", S: sim.TelemetrySampler()}}); err != nil {
			return err
		}
	}
	printPhases(cfg.PhaseTimer)
	return nil
}

// runCluster executes one sharded trial — one workload stream fanned out
// across -dcs datacenters through the chosen dispatch policy — and prints
// the cluster aggregate plus a per-datacenter breakdown.
func runCluster(opts experiments.Options, name string, level float64, sc *scenario.Scenario, bp *scenario.BeliefPolicy, dcs int, route string, dcpar bool, tf telemetryFlags) error {
	matrix := experiments.SPECPET()
	simCfg, err := simulator.ConfigFor(name, matrix)
	if err != nil {
		return err
	}
	simCfg.Scenario = sc
	simCfg.Belief = bp
	policy, err := cluster.NewPolicy(route)
	if err != nil {
		return err
	}
	// Cluster runs always carry telemetry: the gate summary below is
	// rendered straight from the engine's probe registry.
	eng, err := cluster.New(cluster.Config{
		DCs: dcs, Policy: policy, Parallel: dcpar, Sim: simCfg,
		Telemetry: &telemetry.Options{SampleEvery: tf.Every},
		Phases:    tf.Phases,
	})
	if err != nil {
		return err
	}
	src, err := singleSource(opts, level, sc)
	if err != nil {
		return err
	}
	srv, err := startMetricsServer(tf.Addr)
	if err != nil {
		return err
	}
	if srv != nil {
		// Only the engine's own shard is published live: the per-DC shards
		// belong to worker goroutines under -dcpar and are readable only
		// after the final barrier (RunSource returning).
		eng.TelemetrySampler().OnSample = func(int64) {
			srv.Publish("cluster", eng.Telemetry().Snapshot())
		}
	}
	start := time.Now()
	st, perDC, err := eng.RunSource(src)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Printf("%s @%s ×%d DCs (%s routing): robustness %.1f%% (completed %d / window %d; dropped %d, missed %d) in %v\n",
		name, workload.LevelLabel(level), dcs, policy.Name(), st.RobustnessPct, st.Completed, st.Window,
		st.Dropped, st.Missed, elapsed.Round(time.Millisecond))
	lostByDC := eng.LostUndetectedByDC()
	for d, s := range perDC {
		dc := eng.DCList()[d]
		fmt.Printf("  dc%d (machines %v): %d tasks, robustness %.1f%%, %d requeued, %d lost undetected\n",
			d, dc.Machines(), s.Total, s.RobustnessPct, dc.Sim().Requeued(), lostByDC[d])
	}
	if sc != nil {
		fmt.Printf("scenario %q: %d fleet events\n", sc.Name, len(sc.Events))
		if fo := eng.Failover(); fo.Enabled() {
			// The engine's telemetry shard reads the gate's counters —
			// buffering, bounces, retries, detections and their lag — and
			// derives its gauges; render them from there instead of
			// duplicating the arithmetic here.
			fmt.Printf("%s:\n", fo)
			if err := telemetry.WriteText(os.Stdout, telemetry.Shard{Scope: "gate", Snap: eng.Telemetry().Snapshot()}); err != nil {
				return err
			}
		}
	}
	for _, sh := range eng.TelemetryShards() {
		srv.Publish(sh.Scope, sh.Snap)
	}
	if tf.Path != "" {
		if err := writeTelemetry(tf.Path, eng.TelemetrySamplers()); err != nil {
			return err
		}
	}
	printPhases(eng.Phases())
	return nil
}

func writeCSV(path string, tables []*report.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	for _, tbl := range tables {
		if err := tbl.WriteCSV(f); err != nil {
			return err
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hcsim:", err)
	os.Exit(1)
}
