// Customsystem: adopt the library for your own fleet. Profiles a
// user-defined 3-type × 3-machine PET from your own mean execution times,
// persists it to JSON (the artifact you would ship to a production
// scheduler), replays a workload trace through a CSV round-trip, and runs
// PAM over it with full tracing.
//
// Run with:
//
//	go run ./examples/customsystem
package main

import (
	"bytes"
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

// run profiles, persists, replays and schedules the custom system, writing
// a summary of each step to w.
func run(w io.Writer) error {
	// Your measured mean execution times (ticks ≈ ms): rows are task
	// types, columns machines. Note the inconsistent heterogeneity —
	// machine 2 wins type 2 but loses type 0.
	means := [][]float64{
		{30, 45, 90},
		{60, 35, 50},
		{95, 70, 25},
	}
	matrix, err := taskprune.BuildPET(means, taskprune.DefaultPETBuildConfig(), taskprune.NewRNG(1))
	if err != nil {
		return err
	}

	// Persist the profile and load it back — this is what an offline
	// profiling job hands to the online scheduler.
	var petBlob bytes.Buffer
	if err := matrix.WriteJSON(&petBlob); err != nil {
		return err
	}
	written := petBlob.Len() // reading the profile back drains the buffer
	loaded, err := taskprune.ReadPETJSON(&petBlob)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "PET profile: %d task types × %d machines, %d bytes serialized\n",
		loaded.NumTypes(), loaded.NumMachines(), written)

	// Generate a workload at ~2× capacity, round-trip it through the CSV
	// trace format (so an externally captured trace plugs in identically).
	capacity := float64(loaded.NumMachines()) / loaded.GrandMean()
	tasks := taskprune.MustGenerateWorkload(taskprune.WorkloadConfig{
		NumTasks: 500, Rate: 2 * capacity, VarFrac: 0.10, Beta: 2.0,
	}, loaded, taskprune.NewRNG(2))
	var traceBlob bytes.Buffer
	if err := taskprune.WriteWorkloadCSV(&traceBlob, tasks); err != nil {
		return err
	}
	replayed, err := taskprune.ReadWorkloadCSV(&traceBlob, loaded.NumMachines())
	if err != nil {
		return err
	}

	// Run PAM with decision tracing on.
	cfg := taskprune.MustConfigFor("PAM", loaded)
	rec := taskprune.NewTraceRecorder()
	cfg.Trace = rec
	sim, err := taskprune.NewSimulator(cfg)
	if err != nil {
		return err
	}
	st, err := sim.Run(replayed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "PAM on the replayed trace: robustness %.1f%% (%d/%d on time)\n",
		st.RobustnessPct, st.Completed, st.Window)
	fmt.Fprintf(w, "decision stream: %d events recorded\n", rec.Len())
	return nil
}
