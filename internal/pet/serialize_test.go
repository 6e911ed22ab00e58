package pet

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"taskprune/internal/stats"
)

func TestJSONRoundTrip(t *testing.T) {
	orig := testMatrix(t)
	var buf bytes.Buffer
	if err := orig.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumTypes() != orig.NumTypes() || loaded.NumMachines() != orig.NumMachines() {
		t.Fatalf("dimensions changed: %dx%d", loaded.NumTypes(), loaded.NumMachines())
	}
	for ti := 0; ti < orig.NumTypes(); ti++ {
		for mi := 0; mi < orig.NumMachines(); mi++ {
			a, b := orig.entries[ti][mi], loaded.entries[ti][mi]
			if a.Mean != b.Mean || a.Shape != b.Shape {
				t.Fatalf("entry (%d,%d) params changed", ti, mi)
			}
			if math.Abs(a.PMF.Mean()-b.PMF.Mean()) > 1e-9 {
				t.Fatalf("entry (%d,%d) PMF mean changed: %v vs %v", ti, mi, a.PMF.Mean(), b.PMF.Mean())
			}
			if math.Abs(b.PMF.Mass()-1) > 1e-9 {
				t.Fatalf("entry (%d,%d) loaded mass %v", ti, mi, b.PMF.Mass())
			}
			if b.Prof == nil {
				t.Fatalf("entry (%d,%d) missing profile after load", ti, mi)
			}
		}
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":        "{",
		"bad version":     `{"version":99,"num_types":1,"num_machines":1,"entries":[]}`,
		"bad dims":        `{"version":1,"num_types":0,"num_machines":1,"entries":[]}`,
		"missing entries": `{"version":1,"num_types":2,"num_machines":2,"entries":[]}`,
		"bad entry index": `{"version":1,"num_types":1,"num_machines":1,"entries":[{"type":5,"machine":0,"mean":10,"shape":2,"ticks":[1],"probs":[1]}]}`,
		"zero tick":       `{"version":1,"num_types":1,"num_machines":1,"entries":[{"type":0,"machine":0,"mean":10,"shape":2,"ticks":[0],"probs":[1]}]}`,
		"bad mass":        `{"version":1,"num_types":1,"num_machines":1,"entries":[{"type":0,"machine":0,"mean":10,"shape":2,"ticks":[1],"probs":[0.5]}]}`,
		"bad mean":        `{"version":1,"num_types":1,"num_machines":1,"entries":[{"type":0,"machine":0,"mean":-1,"shape":2,"ticks":[1],"probs":[1]}]}`,
		"ragged impulses": `{"version":1,"num_types":1,"num_machines":1,"entries":[{"type":0,"machine":0,"mean":10,"shape":2,"ticks":[1,2],"probs":[1]}]}`,
	}
	for name, payload := range cases {
		if _, err := ReadJSON(strings.NewReader(payload)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestPerturbed(t *testing.T) {
	orig := testMatrix(t)
	rng := stats.NewRNG(5)
	drifted := orig.Perturbed(0.25, rng)
	if drifted.NumTypes() != orig.NumTypes() || drifted.NumMachines() != orig.NumMachines() {
		t.Fatal("dimensions changed")
	}
	changed := false
	for ti := 0; ti < orig.NumTypes(); ti++ {
		for mi := 0; mi < orig.NumMachines(); mi++ {
			a, b := orig.entries[ti][mi], drifted.entries[ti][mi]
			// Profiled belief untouched (same instance).
			if a.PMF != b.PMF || a.Prof != b.Prof {
				t.Fatal("profile was perturbed; only the truth may drift")
			}
			ratio := b.Mean / a.Mean
			if ratio < 0.75-1e-9 || ratio > 1.25+1e-9 {
				t.Fatalf("entry (%d,%d) drift ratio %v outside [0.75, 1.25]", ti, mi, ratio)
			}
			if ratio != 1 {
				changed = true
			}
		}
	}
	if !changed {
		t.Error("no entry drifted")
	}
	// Zero drift is the identity on means.
	same := orig.Perturbed(0, stats.NewRNG(5))
	for ti := 0; ti < orig.NumTypes(); ti++ {
		for mi := 0; mi < orig.NumMachines(); mi++ {
			if same.entries[ti][mi].Mean != orig.entries[ti][mi].Mean {
				t.Fatal("zero drift changed a mean")
			}
		}
	}
}

func TestPerturbedPanicsOnNegativeDrift(t *testing.T) {
	orig := testMatrix(t)
	defer func() {
		if recover() == nil {
			t.Fatal("negative drift accepted")
		}
	}()
	orig.Perturbed(-0.1, stats.NewRNG(1))
}
