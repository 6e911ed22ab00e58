// Command hctrace runs one fully traced trial and prints what happened
// inside it: outcome breakdown, latency percentiles, deferral activity,
// per-machine utilization, and (optionally) the queue-occupancy timeline
// or the raw decision stream.
//
// Usage:
//
//	hctrace -heuristic PAM -level 34000
//	hctrace -heuristic MM -timeline-csv timeline.csv
//	hctrace -heuristic PAMF -dump-trace trace.txt
package main

import (
	"flag"
	"fmt"
	"os"

	"taskprune/internal/analysis"
	"taskprune/internal/experiments"
	"taskprune/internal/simulator"
	"taskprune/internal/stats"
	"taskprune/internal/trace"
	"taskprune/internal/workload"
)

func main() {
	var (
		heuristic   = flag.String("heuristic", "PAM", "mapping heuristic")
		level       = flag.Float64("level", workload.Level34k, "oversubscription level")
		tasks       = flag.Int("tasks", 800, "tasks in the trial")
		seed        = flag.Int64("seed", 1, "workload seed")
		beta        = flag.Float64("beta", 2.0, "deadline slack coefficient")
		timelineCSV = flag.String("timeline-csv", "", "write the queue-occupancy timeline as CSV")
		dumpTrace   = flag.String("dump-trace", "", "write the raw decision stream to this file")
	)
	flag.Parse()

	matrix := experiments.SPECPET()
	cfg, err := simulator.ConfigFor(*heuristic, matrix)
	if err != nil {
		fatal(err)
	}
	rec := trace.NewRecorder()
	cfg.Trace = rec

	list, err := workload.Generate(workload.Config{
		NumTasks: *tasks,
		Rate:     workload.RateForLevel(*level),
		VarFrac:  0.10,
		Beta:     *beta,
	}, matrix, stats.NewRNG(*seed))
	if err != nil {
		fatal(err)
	}
	sim, err := simulator.New(cfg)
	if err != nil {
		fatal(err)
	}
	st, err := sim.Run(list)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("%s @%s, %d tasks, seed %d — robustness %.1f%%\n\n",
		*heuristic, workload.LevelLabel(*level), *tasks, *seed, st.RobustnessPct)
	a := analysis.AnalyzeTrial(list, sim.Machines(), sim.Now())
	fmt.Println(a.Table().String())

	timeline := analysis.QueueTimeline(rec)
	fmt.Printf("peak batch-queue occupancy: %d tasks (%d trace events)\n",
		analysis.PeakBatch(timeline), rec.Len())

	if *timelineCSV != "" {
		f, err := os.Create(*timelineCSV)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := analysis.WriteTimelineCSV(f, timeline); err != nil {
			fatal(err)
		}
		fmt.Printf("timeline written to %s\n", *timelineCSV)
	}
	if *dumpTrace != "" {
		f, err := os.Create(*dumpTrace)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := rec.WriteText(f); err != nil {
			fatal(err)
		}
		fmt.Printf("decision stream written to %s\n", *dumpTrace)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hctrace:", err)
	os.Exit(1)
}
