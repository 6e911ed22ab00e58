package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"taskprune/internal/experiments"
)

// TestRegisteredNamesSorted pins the unknown -exp listing contract: every
// registered experiment plus the special modes, in sorted order, with no
// duplicates — so the help output stays scannable as experiments accrue.
func TestRegisteredNamesSorted(t *testing.T) {
	names := registeredNames()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("registered names not sorted: %v", names)
	}
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate registered name %q", n)
		}
		seen[n] = true
	}
	for _, e := range experimentOrder {
		if !seen[e.name] {
			t.Fatalf("experiment %q missing from the listing", e.name)
		}
	}
	for _, special := range []string{"single", "all"} {
		if !seen[special] {
			t.Fatalf("special mode %q missing from the listing", special)
		}
	}
	if len(names) != len(experimentOrder)+2 {
		t.Fatalf("listing has %d names, want %d experiments + 2 special modes", len(names), len(experimentOrder))
	}
}

// TestTelemetryFlagsOptions: no consumer → nil options → telemetry stays
// disabled (the zero-cost default); any consumer → options with the chosen
// interval.
func TestTelemetryFlagsOptions(t *testing.T) {
	if (telemetryFlags{Every: 100}).options() != nil {
		t.Fatal("options non-nil with no telemetry consumer")
	}
	for _, tf := range []telemetryFlags{
		{Path: "out.csv", Every: 50},
		{Phases: true, Every: 50},
		{Addr: ":0", Every: 50},
	} {
		opts := tf.options()
		if opts == nil || opts.SampleEvery != 50 {
			t.Fatalf("options for %+v = %+v", tf, opts)
		}
	}
	if (telemetryFlags{}).options() != nil {
		t.Fatal("zero flags yielded options")
	}
}

// updateRepro rewrites the experiment-table goldens under testdata/repro/.
var updateRepro = flag.Bool("update", false, "rewrite the experiment-table goldens")

// TestGoldenReproTables pins every registered experiment's rendered tables
// at a small fixed scale (2 trials × 300 tasks, seed 1): each table must
// print byte for byte as the committed testdata/repro/<name>.txt, exactly
// as main prints it minus the trailing timing line. At this scale the
// tables pin behaviour, not science. Regenerate with
//
//	go test ./cmd/hcsim/ -run GoldenReproTables -update
//
// and review the diff like any other behaviour change.
func TestGoldenReproTables(t *testing.T) {
	opts := experiments.Options{Trials: 2, Tasks: 300, Seed: 1, Beta: 2.0, VarFrac: 0.10}
	for _, e := range experimentOrder {
		t.Run(e.name, func(t *testing.T) {
			fig, err := e.run(opts)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			for _, tbl := range tablesFor(e.name, fig) {
				fmt.Fprintln(&buf, tbl.String())
			}
			path := filepath.Join("testdata", "repro", e.name+".txt")
			if *updateRepro {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if !bytes.Equal(want, buf.Bytes()) {
				t.Fatalf("%s: tables differ from the golden\n--- golden\n%s\n--- got\n%s", path, want, buf.Bytes())
			}
		})
	}
}
