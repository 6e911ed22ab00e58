// Package result is the benchmark's result format and the order statistics
// that the benchmark and its comparison tool both compute, so the two can
// never disagree about what a file holds or where a quartile falls.
package result

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// Metric is one measured value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Line is the summary the benchmark prints as the last line of its
// standard output for each workload run.
type Line struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Env records the machine and build a run came from.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

// File is one workload run as written to the benchmark's output directory.
type File struct {
	Line
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	// Started is the run's start time (RFC 3339, nanoseconds); the
	// comparison tool pairs runs in this order.
	Started      string   `json:"started"`
	Env          Env      `json:"env"`
	Params       any      `json:"params"`
	FailedChecks []string `json:"failed_checks,omitempty"`
	// Invalid says why the run's timings are not to be trusted; the
	// comparison tool leaves such runs out.
	Invalid []string `json:"invalid,omitempty"`
}

// Read loads one result file.
func Read(path string) (File, error) {
	var f File
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// Quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) returns (its default "exclusive" method).
// xs is not modified. Where Python refuses fewer than two values, one value
// is its own quartiles and an empty slice gives NaN.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := len(s) + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending slice,
// interpolating linearly between order statistics; NaN when empty.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}
