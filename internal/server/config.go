// Package server turns the cluster engine into a long-running scheduling
// daemon: an HTTP API accepts live task submissions into the pull-based
// workload source, a single pump goroutine drives the engine through the
// live-stepping API, and the telemetry registry, an embedded status page,
// and a what-if advisor share the same mux. See server.go for the runtime
// and config.go (this file) for the persistent fleet/policy configuration
// a deployment boots from.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"taskprune/internal/cluster"
	"taskprune/internal/experiments"
	"taskprune/internal/pet"
	"taskprune/internal/scenario"
	"taskprune/internal/simulator"
	"taskprune/internal/stats"
	"taskprune/internal/telemetry"
)

// Defaults applied by ParseConfig when the file omits a field.
const (
	DefaultQueue  = 256  // submission-buffer capacity (backpressure threshold)
	DefaultWindow = 1024 // what-if replay window (recent submissions retained)
	DefaultBeta   = 2.0  // deadline slack coefficient for stamped deadlines
	DefaultSeed   = 1    // execution-time sampling seed
)

// Fleet declares the PET matrix a deployment schedules on.
type Fleet struct {
	// PET selects the matrix: "spec" (the paper's 12×8 evaluation fleet),
	// "video" (the 4×4 transcoding fleet), or "synthetic" (an arbitrary
	// Types×Machines fleet generated from Seed with the SPEC-like recipe).
	PET string `json:"pet"`
	// Types and Machines size a synthetic fleet (ignored otherwise).
	Types    int `json:"types,omitempty"`
	Machines int `json:"machines,omitempty"`
	// Seed fixes a synthetic fleet's generated means across restarts.
	Seed int64 `json:"seed,omitempty"`
}

// Config is the persistent serve configuration: everything `hcsim serve`
// needs to boot a deployment, composed from the existing scenario wire
// formats (fleet events, failover/checkpoint/belief policies ride inside
// the nested scenario). It round-trips through JSON — ParseConfig rejects
// unknown fields, MarshalJSON writes the form ParseConfig reads — and is
// validated once at boot, never per request.
type Config struct {
	// Name labels the deployment in status output.
	Name string
	// Fleet selects the PET matrix.
	Fleet Fleet
	// Heuristic is the per-datacenter mapping heuristic (PAM, PAMF, MOC,
	// MM, MSD, MMU).
	Heuristic string
	// DCs shards the fleet across this many datacenters (1 = one fleet
	// behind the dispatcher).
	DCs int
	// Route is the dispatch policy: round-robin, least-queued, pet-aware.
	Route string
	// Queue is the submission-buffer capacity; a full buffer answers 429.
	Queue int
	// Window is how many recent submissions the what-if advisor retains.
	Window int
	// Beta is the deadline slack coefficient for submissions that do not
	// carry their own deadline: span(type) = mean(type) + Beta·grandMean.
	Beta float64
	// Seed drives ground-truth execution-time sampling.
	Seed int64
	// SampleEvery is the telemetry sampling interval in simulated ticks
	// (0 = telemetry.DefaultSampleEvery).
	SampleEvery int64
	// Scenario, when non-nil, runs the deployment under a dynamic-fleet
	// scenario: timed failures, whole-DC outages, degradations, plus the
	// nested failover/checkpoint/belief policies.
	Scenario *scenario.Scenario
}

// jsonConfig is the wire form of Config. The scenario stays raw so
// scenario.Parse applies its own strict decoding (unknown-field rejection
// included) to the nested document.
type jsonConfig struct {
	Name        string          `json:"name"`
	Fleet       Fleet           `json:"fleet"`
	Heuristic   string          `json:"heuristic,omitempty"`
	DCs         int             `json:"dcs,omitempty"`
	Route       string          `json:"route,omitempty"`
	Queue       int             `json:"queue,omitempty"`
	Window      int             `json:"window,omitempty"`
	Beta        *float64        `json:"beta,omitempty"`
	Seed        *int64          `json:"seed,omitempty"`
	SampleEvery int64           `json:"sample_every,omitempty"`
	Scenario    json.RawMessage `json:"scenario,omitempty"`
}

// ParseConfig reads a JSON serve configuration, rejecting unknown fields
// and applying defaults for omitted ones. Semantic checks (unknown
// heuristics, impossible partitions, malformed scenarios) happen in
// Validate, which LoadConfig calls for the boot path.
func ParseConfig(r io.Reader) (*Config, error) {
	d := json.NewDecoder(r)
	d.DisallowUnknownFields()
	var in jsonConfig
	if err := d.Decode(&in); err != nil {
		return nil, fmt.Errorf("server: config: %w", err)
	}
	c := &Config{
		Name:        in.Name,
		Fleet:       in.Fleet,
		Heuristic:   in.Heuristic,
		DCs:         in.DCs,
		Route:       in.Route,
		Queue:       in.Queue,
		Window:      in.Window,
		Beta:        DefaultBeta,
		Seed:        DefaultSeed,
		SampleEvery: in.SampleEvery,
	}
	if in.Beta != nil {
		c.Beta = *in.Beta
	}
	if in.Seed != nil {
		c.Seed = *in.Seed
	}
	if len(in.Scenario) > 0 {
		sc, err := scenario.Parse(bytes.NewReader(in.Scenario))
		if err != nil {
			return nil, fmt.Errorf("server: config: %w", err)
		}
		c.Scenario = sc
	}
	if c.Fleet.PET == "" {
		c.Fleet.PET = "spec"
	}
	if c.Heuristic == "" {
		c.Heuristic = "PAM"
	}
	if c.DCs == 0 {
		c.DCs = 1
	}
	if c.Route == "" {
		c.Route = "round-robin"
	}
	if c.Queue == 0 {
		c.Queue = DefaultQueue
	}
	if c.Window == 0 {
		c.Window = DefaultWindow
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = telemetry.DefaultSampleEvery
	}
	return c, nil
}

// LoadConfig parses and validates the serve configuration at path — the
// boot path of `hcsim serve -config`.
func LoadConfig(path string) (*Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	defer f.Close()
	c, err := ParseConfig(f)
	if err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// MarshalJSON writes the wire form ParseConfig reads, so configs
// round-trip (the fuzz corpus pins Parse∘Marshal∘Parse fixpointing).
func (c *Config) MarshalJSON() ([]byte, error) {
	out := jsonConfig{
		Name:        c.Name,
		Fleet:       c.Fleet,
		Heuristic:   c.Heuristic,
		DCs:         c.DCs,
		Route:       c.Route,
		Queue:       c.Queue,
		Window:      c.Window,
		SampleEvery: c.SampleEvery,
	}
	beta, seed := c.Beta, c.Seed
	out.Beta, out.Seed = &beta, &seed
	if c.Scenario != nil {
		raw, err := json.Marshal(c.Scenario)
		if err != nil {
			return nil, err
		}
		out.Scenario = raw
	}
	return json.Marshal(out)
}

// Matrix builds (or fetches, for the process-cached named fleets) the PET
// matrix the configuration declares.
func (c *Config) Matrix() (*pet.Matrix, error) {
	switch c.Fleet.PET {
	case "spec":
		return experiments.SPECPET(), nil
	case "video":
		return experiments.VideoPET(), nil
	case "synthetic":
		if c.Fleet.Types < 1 || c.Fleet.Machines < 1 {
			return nil, fmt.Errorf("server: config: synthetic fleet needs positive types and machines, got %d×%d", c.Fleet.Types, c.Fleet.Machines)
		}
		means := pet.SyntheticMeans(c.Fleet.Types, c.Fleet.Machines, c.Fleet.Seed)
		return pet.Build(means, pet.DefaultBuildConfig(), stats.NewRNG(c.Fleet.Seed^0x5EC1))
	default:
		return nil, fmt.Errorf("server: config: unknown fleet pet %q (spec, video, synthetic)", c.Fleet.PET)
	}
}

// Validate rejects a configuration the daemon could not boot: unknown
// fleet/heuristic/route names, impossible fleet partitions, non-positive
// capacities, and scenarios that fail cluster validation. It runs once at
// boot so every later NewEngine call on the same config succeeds.
func (c *Config) Validate() error {
	matrix, err := c.Matrix()
	if err != nil {
		return err
	}
	nm := matrix.NumMachines()
	if _, err := simulator.ConfigFor(c.Heuristic, matrix); err != nil {
		return fmt.Errorf("server: config: %w", err)
	}
	if _, err := cluster.NewPolicy(c.Route); err != nil {
		return fmt.Errorf("server: config: %w", err)
	}
	if c.DCs < 1 || c.DCs > nm {
		return fmt.Errorf("server: config: %d datacenters for %d machines (need 1..%d)", c.DCs, nm, nm)
	}
	if c.Queue < 1 {
		return fmt.Errorf("server: config: queue capacity %d (need >= 1)", c.Queue)
	}
	if c.Window < 1 {
		return fmt.Errorf("server: config: what-if window %d (need >= 1)", c.Window)
	}
	if !(c.Beta >= 0) || math.IsInf(c.Beta, 0) {
		return fmt.Errorf("server: config: beta %v (need finite, >= 0)", c.Beta)
	}
	if c.SampleEvery < 1 {
		return fmt.Errorf("server: config: sample_every %d (need >= 1 tick)", c.SampleEvery)
	}
	if !c.Scenario.IsStatic() {
		if err := c.Scenario.ValidateCluster(nm, c.DCs); err != nil {
			return fmt.Errorf("server: config: %w", err)
		}
	} else if c.Scenario != nil {
		// An event-free scenario skips cluster validation (no fleet changes
		// to range-check), but its nested policies must still hold — the
		// engine resolves and enforces them regardless.
		if err := c.Scenario.Failover.Validate(); err != nil {
			return fmt.Errorf("server: config: %w", err)
		}
		if err := c.Scenario.Checkpoint.Validate(); err != nil {
			return fmt.Errorf("server: config: %w", err)
		}
		if err := c.Scenario.Belief.Validate(); err != nil {
			return fmt.Errorf("server: config: %w", err)
		}
	}
	return nil
}

// NewEngine builds a cluster engine for this configuration over the given
// matrix. tel selects the engine's telemetry options (nil = disabled; the
// what-if replays run dark, the daemon runs instrumented).
func (c *Config) NewEngine(matrix *pet.Matrix, tel *telemetry.Options) (*cluster.Engine, error) {
	simCfg, err := simulator.ConfigFor(c.Heuristic, matrix)
	if err != nil {
		return nil, err
	}
	simCfg.Scenario = c.Scenario
	policy, err := cluster.NewPolicy(c.Route)
	if err != nil {
		return nil, err
	}
	return cluster.New(cluster.Config{
		DCs:       c.DCs,
		Policy:    policy,
		Sim:       simCfg,
		Telemetry: tel,
	})
}
