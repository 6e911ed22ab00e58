// Quickstart: simulate one oversubscribed trial with the paper's PAM
// (Pruning-Aware Mapper) and compare it against plain MinMin on the exact
// same workload.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"taskprune"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run simulates the trial under both heuristics and writes the comparison
// to w.
func run(w io.Writer) error {
	// The evaluation PET matrix: 12 task types × 8 inconsistently
	// heterogeneous machines, profiled from gamma-sampled histograms.
	matrix := taskprune.SPECPET()

	// One 800-task trial at the paper's extreme "34k" oversubscription
	// level (≈ 3× aggregate service capacity). The same seed is used for
	// both heuristics so they face identical arrivals, deadlines, and
	// ground-truth execution times.
	wcfg := taskprune.WorkloadConfig{
		NumTasks: 800,
		Rate:     taskprune.RateForLevel(taskprune.Level34k),
		VarFrac:  0.10, // arrival-gamma variance = 10% of the mean
		Beta:     2.0,  // deadline slack: δ = arrival + avg_type + β·avg_all
	}

	for _, name := range []string{"PAM", "MM"} {
		tasks := taskprune.MustGenerateWorkload(wcfg, matrix, taskprune.NewRNG(42))

		// ConfigFor wires up the paper's evaluation settings: PAM gets the
		// full pruning mechanism (defer at 90%, drop at 50%, λ=0.9 EWMA
		// with a Schmitt trigger) under scenario-C eviction semantics;
		// MM runs unprotected.
		cfg := taskprune.MustConfigFor(name, matrix)
		sim, err := taskprune.NewSimulator(cfg)
		if err != nil {
			return err
		}
		stats, err := sim.Run(tasks)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-4s robustness %5.1f%%  (on-time %d, dropped %d, missed %d of %d analyzed)\n",
			name, stats.RobustnessPct, stats.Completed, stats.Dropped, stats.Missed, stats.Window)
	}
	fmt.Fprintln(w, "\nPAM's probabilistic pruning defers unlikely-to-succeed tasks and drops")
	fmt.Fprintln(w, "doomed ones, so machines spend their time on tasks that can still win.")
	return nil
}
