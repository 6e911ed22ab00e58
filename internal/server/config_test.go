package server

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"taskprune/internal/pet"
	"taskprune/internal/scenario"
	"taskprune/internal/telemetry"
	"taskprune/internal/workload"
)

func TestParseConfigDefaults(t *testing.T) {
	c, err := ParseConfig(strings.NewReader(`{"name":"minimal","fleet":{"pet":"spec"}}`))
	if err != nil {
		t.Fatal(err)
	}
	want := &Config{
		Name: "minimal", Fleet: Fleet{PET: "spec"},
		Heuristic: "PAM", DCs: 1, Route: "round-robin",
		Queue: DefaultQueue, Window: DefaultWindow,
		Beta: DefaultBeta, Seed: DefaultSeed, SampleEvery: telemetry.DefaultSampleEvery,
	}
	if !reflect.DeepEqual(c, want) {
		t.Fatalf("defaults:\n got %+v\nwant %+v", c, want)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("minimal config invalid: %v", err)
	}
}

func TestParseConfigEmptyFleetDefaultsToSpec(t *testing.T) {
	c, err := ParseConfig(strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if c.Fleet.PET != "spec" {
		t.Fatalf("empty config fleet = %q, want spec", c.Fleet.PET)
	}
}

func TestParseConfigRejectsUnknownFields(t *testing.T) {
	for _, body := range []string{
		`{"fleet":{"pet":"spec"},"bogus":1}`,
		`{"fleet":{"pet":"spec","surprise":true}}`,
		`{"fleet":{"pet":"spec"},"scenario":{"name":"x","wat":1}}`,
	} {
		if _, err := ParseConfig(strings.NewReader(body)); err == nil {
			t.Errorf("unknown field accepted: %s", body)
		}
	}
}

func TestConfigRoundTrip(t *testing.T) {
	src := `{
		"name": "prod",
		"fleet": {"pet": "synthetic", "types": 6, "machines": 9, "seed": 42},
		"heuristic": "MM",
		"dcs": 3,
		"route": "least-queued",
		"queue": 64,
		"window": 500,
		"beta": 1.5,
		"seed": 7,
		"sample_every": 250,
		"scenario": {
			"name": "churn",
			"events": [
				{"tick": 100, "kind": "dc-fail", "dc": 0, "policy": "requeue"},
				{"tick": 400, "kind": "dc-recover", "dc": 0}
			],
			"failover": {"kind": "heartbeat", "heartbeat_every": 20, "suspect_after": 2,
				"probation": 20, "bounce_after": 10, "retry_base": 5, "retry_cap": 40}
		}
	}`
	c1, err := ParseConfig(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Validate(); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(c1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := ParseConfig(strings.NewReader(string(raw)))
	if err != nil {
		t.Fatalf("re-parse of marshaled config failed: %v\n%s", err, raw)
	}
	if !reflect.DeepEqual(c1, c2) {
		t.Fatalf("round trip diverged:\n first %+v\nsecond %+v", c1, c2)
	}
}

func TestValidateRejections(t *testing.T) {
	base := func() *Config {
		c, err := ParseConfig(strings.NewReader(`{"fleet":{"pet":"video"}}`))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"unknown-pet", func(c *Config) { c.Fleet.PET = "quantum" }, "unknown fleet pet"},
		{"synthetic-no-dims", func(c *Config) { c.Fleet = Fleet{PET: "synthetic"} }, "positive types and machines"},
		{"unknown-heuristic", func(c *Config) { c.Heuristic = "YOLO" }, "unknown heuristic"},
		{"unknown-route", func(c *Config) { c.Route = "teleport" }, "unknown dispatch policy"},
		{"zero-dcs", func(c *Config) { c.DCs = 0 }, "datacenters"},
		{"too-many-dcs", func(c *Config) { c.DCs = 99 }, "datacenters"},
		{"zero-queue", func(c *Config) { c.Queue = 0 }, "queue capacity"},
		{"zero-window", func(c *Config) { c.Window = 0 }, "what-if window"},
		{"negative-beta", func(c *Config) { c.Beta = -1 }, "beta"},
		{"zero-sample", func(c *Config) { c.SampleEvery = 0 }, "sample_every"},
		{"scenario-out-of-range", func(c *Config) {
			c.Scenario = scenario.New("bad").FailAt(10, 99, scenario.Requeue)
		}, "machine out of range"},
		{"scenario-dc-out-of-range", func(c *Config) {
			c.Scenario = scenario.New("bad").DCFailAt(10, 5, scenario.Requeue)
		}, "datacenter out of range"},
		{"static-scenario-bad-failover", func(c *Config) {
			c.Scenario = scenario.New("bad").WithFailover(scenario.FailoverPolicy{Kind: scenario.FailoverHeartbeat, HeartbeatEvery: -3})
		}, "heartbeat"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := base()
			tc.mut(c)
			err := c.Validate()
			if err == nil {
				t.Fatalf("accepted invalid config %+v", c)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestSyntheticMeansGeneralizesSPEC pins the refactor: the paper fleet is
// the synthetic generator at its dimensions and seed, byte for byte.
func TestSyntheticMeansGeneralizesSPEC(t *testing.T) {
	if !reflect.DeepEqual(pet.SPECLikeMeans(), pet.SyntheticMeans(pet.SPECNumTypes, pet.SPECNumMachines, 0x5EC1)) {
		t.Fatal("SyntheticMeans(12, 8, 0x5EC1) != SPECLikeMeans")
	}
}

func TestSyntheticFleetBuilds(t *testing.T) {
	c, err := ParseConfig(strings.NewReader(`{"fleet":{"pet":"synthetic","types":3,"machines":5,"seed":9}}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	m, err := c.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	if m.NumTypes() != 3 || m.NumMachines() != 5 {
		t.Fatalf("synthetic matrix is %d×%d, want 3×5", m.NumTypes(), m.NumMachines())
	}
	spans := workload.DeadlineSpans(m, c.Beta)
	if len(spans) != 3 {
		t.Fatalf("%d deadline spans for 3 types", len(spans))
	}
	for ti, sp := range spans {
		if sp <= 0 {
			t.Fatalf("span[%d] = %d, want positive", ti, sp)
		}
	}
}
