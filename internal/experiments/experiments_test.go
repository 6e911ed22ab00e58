package experiments

import (
	"strings"
	"testing"

	"taskprune/internal/simulator"
	"taskprune/internal/workload"
)

// tinyOptions keeps experiment smoke tests fast on a single core.
func tinyOptions() Options {
	o := DefaultOptions()
	o.Trials = 2
	o.Tasks = 150
	return o
}

// FindPoint returns the first point with the given series and label.
func (f *Figure) FindPoint(series, label string) (Point, bool) {
	for _, p := range f.Points {
		if p.Series == series && p.Label == label {
			return p, true
		}
	}
	return Point{}, false
}

func TestSharedPETs(t *testing.T) {
	spec := SPECPET()
	if spec.NumTypes() != 12 || spec.NumMachines() != 8 {
		t.Errorf("SPEC PET is %dx%d, want 12x8", spec.NumTypes(), spec.NumMachines())
	}
	video := VideoPET()
	if video.NumTypes() != 4 || video.NumMachines() != 4 {
		t.Errorf("video PET is %dx%d, want 4x4", video.NumTypes(), video.NumMachines())
	}
	if SPECPET() != spec {
		t.Error("SPECPET not cached (paper holds the PET constant)")
	}
}

func TestRunPointDeterminism(t *testing.T) {
	o := tinyOptions()
	matrix := SPECPET()
	wcfg := o.workloadConfig(workload.Level19k)
	cfg := simulator.MustConfigFor("MM", matrix)
	a, err := o.RunPoint(matrix, wcfg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := o.RunPoint(matrix, wcfg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].RobustnessPct != b[i].RobustnessPct {
			t.Errorf("trial %d: %v vs %v", i, a[i].RobustnessPct, b[i].RobustnessPct)
		}
	}
}

func TestRunPointTrialsDiffer(t *testing.T) {
	o := tinyOptions()
	o.Trials = 3
	matrix := SPECPET()
	wcfg := o.workloadConfig(workload.Level19k)
	trials, err := o.RunPoint(matrix, wcfg, simulator.MustConfigFor("MM", matrix))
	if err != nil {
		t.Fatal(err)
	}
	allSame := true
	for i := 1; i < len(trials); i++ {
		if trials[i].RobustnessPct != trials[0].RobustnessPct {
			allSame = false
		}
	}
	if allSame {
		t.Error("all trials identical; per-trial seeds not applied")
	}
}

func TestRunPointValidation(t *testing.T) {
	o := tinyOptions()
	o.Trials = 0
	_, err := o.RunPoint(SPECPET(), o.workloadConfig(workload.Level19k), simulator.MustConfigFor("MM", SPECPET()))
	if err == nil {
		t.Error("zero trials accepted")
	}
}

func TestFigureTables(t *testing.T) {
	fig := &Figure{Name: "X", Caption: "c"}
	fig.Points = append(fig.Points, NewPoint("S", "L", nil))
	for _, tbl := range []string{
		fig.RobustnessTable().String(),
		fig.CostTable().String(),
		fig.FairnessTable().String(),
	} {
		if !strings.Contains(tbl, "X — c") || !strings.Contains(tbl, "S") {
			t.Errorf("table missing identity:\n%s", tbl)
		}
	}
	if _, ok := fig.FindPoint("S", "nope"); ok {
		t.Error("FindPoint matched a missing label")
	}
}
