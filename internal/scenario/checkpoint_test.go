package scenario

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestCheckpointPolicyValidate(t *testing.T) {
	valid := []CheckpointPolicy{
		{},
		{Kind: CheckpointNone},
		{Kind: CheckpointPeriodic, Interval: 10},
		{Kind: CheckpointPeriodic, Interval: 10, Overhead: 3},
		{Kind: CheckpointPeriodic, Interval: 1, Survival: SurviveReplicated, ReplicationLag: 5},
	}
	for i, p := range valid {
		if err := p.Validate(); err != nil {
			t.Errorf("valid policy %d (%s) rejected: %v", i, &p, err)
		}
	}
	var nilPolicy *CheckpointPolicy
	if err := nilPolicy.Validate(); err != nil {
		t.Errorf("nil policy rejected: %v", err)
	}
	invalid := []CheckpointPolicy{
		{Kind: CheckpointKind(99)},
		{Kind: CheckpointPeriodic},                             // missing interval
		{Kind: CheckpointPeriodic, Interval: -5},               // negative interval
		{Kind: CheckpointPeriodic, Interval: 10, Overhead: -1}, // negative overhead
		{Kind: CheckpointPeriodic, Interval: 10, Survival: SurvivalMode(7)},
		{Kind: CheckpointNone, Interval: 10},                        // interval without periodic
		{Kind: CheckpointNone, Overhead: 3},                         // overhead without periodic
		{Kind: CheckpointPeriodic, Interval: 10, ReplicationLag: 5}, // lag without replication
		{Kind: CheckpointPeriodic, Interval: 10, Survival: SurviveReplicated, ReplicationLag: -1},
	}
	for i, p := range invalid {
		if err := p.Validate(); err == nil {
			t.Errorf("invalid policy %d (%+v) accepted", i, p)
		}
	}
}

func TestCheckpointPointsWithin(t *testing.T) {
	p := &CheckpointPolicy{Kind: CheckpointPeriodic, Interval: 10}
	cases := []struct {
		from, total, want int64
	}{
		{0, 30, 2}, // checkpoints at 10, 20; 30 is completion
		{0, 31, 3}, // 10, 20, 30
		{0, 10, 0}, // a checkpoint at completion is never written
		{0, 1, 0},
		{10, 30, 1}, // resumed at 10: only 20 remains
		{15, 30, 1}, // resumed mid-interval: 20
		{30, 30, 0},
		{40, 30, 0}, // overshot credit (clamped remaining): nothing
	}
	for _, c := range cases {
		if got := p.PointsWithin(c.from, c.total); got != c.want {
			t.Errorf("PointsWithin(%d, %d) = %d, want %d", c.from, c.total, got, c.want)
		}
	}
	none := &CheckpointPolicy{Kind: CheckpointNone}
	if got := none.PointsWithin(0, 100); got != 0 {
		t.Errorf("non-periodic PointsWithin = %d, want 0", got)
	}
	var nilPolicy *CheckpointPolicy
	if got := nilPolicy.PointsWithin(0, 100); got != 0 {
		t.Errorf("nil PointsWithin = %d, want 0", got)
	}
}

func TestCheckpointFailoverCredit(t *testing.T) {
	local := &CheckpointPolicy{Kind: CheckpointPeriodic, Interval: 10}
	if got := local.FailoverCredit(40); got != 0 {
		t.Errorf("local survival credit = %d, want 0 (checkpoints die with the DC)", got)
	}
	repl := &CheckpointPolicy{Kind: CheckpointPeriodic, Interval: 10, Survival: SurviveReplicated, ReplicationLag: 5}
	cases := []struct{ banked, want int64 }{
		{40, 35}, // the freshest 5 ticks had not replicated yet
		{30, 25},
		{10, 5},
		{5, 0}, // the whole banked window was still in flight
		{0, 0},
	}
	for _, c := range cases {
		if got := repl.FailoverCredit(c.banked); got != c.want {
			t.Errorf("replicated FailoverCredit(%d) = %d, want %d", c.banked, got, c.want)
		}
	}
	none := &CheckpointPolicy{Kind: CheckpointNone, Survival: SurviveReplicated}
	if got := none.FailoverCredit(10); got != 0 {
		t.Errorf("disabled policy credit = %d, want 0 (nothing was checkpointed)", got)
	}
	var nilPolicy *CheckpointPolicy
	if got := nilPolicy.FailoverCredit(50); got != 0 {
		t.Errorf("nil policy credit = %d, want 0", got)
	}
}

func TestCheckpointJSONRoundTrip(t *testing.T) {
	src := `{"name":"ck","events":[{"tick":100,"kind":"fail","machine":1,"policy":"requeue"}],
		"checkpoint":{"kind":"periodic","interval":50,"overhead":2,"survival":"replicated","replication_lag":10}}`
	s, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	p := s.Checkpoint
	if p == nil || p.Kind != CheckpointPeriodic || p.Interval != 50 || p.Overhead != 2 ||
		p.Survival != SurviveReplicated || p.ReplicationLag != 10 {
		t.Fatalf("parsed policy %+v, want periodic/50/2/replicated/10", p)
	}
	if err := s.Validate(4); err != nil {
		t.Fatal(err)
	}
	blob, err := s.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	again, err := Parse(bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, blob)
	}
	if *again.Checkpoint != *p {
		t.Fatalf("round trip changed the policy: %+v vs %+v", again.Checkpoint, p)
	}
}

func TestCheckpointJSONRejections(t *testing.T) {
	parseFail := []string{
		`{"checkpoint":{"kind":"hourly"}}`,                        // unknown kind
		`{"checkpoint":{"kind":"periodic","survival":"quantum"}}`, // unknown survival
		`{"checkpoint":{"kind":"periodic","cadence":5}}`,          // unknown field
		`{"checkpoint":{"kind":"periodic","interval":"often"}}`,   // non-numeric interval
		`{"checkpoint":{"kind":"periodic","interval":1.5}}`,       // fractional ticks
		`{"checkpoint":{}}`, // missing kind
	}
	for _, src := range parseFail {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("parser accepted %s", src)
		}
	}
	// The wire format knows two kinds, none and periodic; any other gets
	// the unknown-kind error.
	if _, err := Parse(strings.NewReader(`{"checkpoint":{"kind":"on-preempt"}}`)); err == nil ||
		!strings.Contains(err.Error(), `checkpoint has unknown kind "on-preempt"`) {
		t.Errorf("on-preempt kind: err = %v, want the unknown-kind error", err)
	}
	// Structurally fine JSON whose policy fails fleet-independent validation.
	validateFail := []string{
		`{"checkpoint":{"kind":"periodic"}}`,                                   // no interval
		`{"checkpoint":{"kind":"periodic","interval":-3}}`,                     // negative interval
		`{"checkpoint":{"kind":"periodic","interval":10,"overhead":-1}}`,       // negative overhead
		`{"checkpoint":{"kind":"none","interval":10}}`,                         // interval without periodic
		`{"checkpoint":{"kind":"periodic","interval":10,"replication_lag":4}}`, // lag without replication
	}
	for _, src := range validateFail {
		s, err := Parse(strings.NewReader(src))
		if err != nil {
			t.Errorf("parser rejected structurally valid %s: %v", src, err)
			continue
		}
		if err := s.Validate(4); err == nil {
			t.Errorf("validation accepted %s", src)
		}
		if err := s.ValidateCluster(4, 2); err == nil {
			t.Errorf("cluster validation accepted %s", src)
		}
	}
}

// TestParseUnknownFieldsPerKind: DisallowUnknownFields must reject a stray
// field on every event kind's wire form — and the known-good spelling of
// each kind must both parse and survive a marshal→parse round trip.
func TestParseUnknownFieldsPerKind(t *testing.T) {
	events := map[string]string{
		"fail":       `{"tick":10,"kind":"fail","machine":0,"policy":"drop"}`,
		"remove":     `{"tick":10,"kind":"remove","machine":0}`,
		"leave":      `{"tick":10,"kind":"leave","machine":0}`,
		"recover":    `{"tick":10,"kind":"recover","machine":0}`,
		"add":        `{"tick":10,"kind":"add","machine":0}`,
		"join":       `{"tick":10,"kind":"join","machine":0}`,
		"degrade":    `{"tick":10,"kind":"degrade","machine":0,"factor":2}`,
		"restore":    `{"tick":10,"kind":"restore","machine":0}`,
		"drift":      `{"tick":10,"kind":"drift","machine":0,"until":50,"from":1,"to":3,"steps":4}`,
		"dc-fail":    `{"tick":10,"kind":"dc-fail","dc":1,"policy":"requeue"}`,
		"dc-recover": `{"tick":10,"kind":"dc-recover","dc":1}`,
	}
	for kind, ev := range events {
		good := `{"name":"k","events":[` + ev + `]}`
		s, err := Parse(strings.NewReader(good))
		if err != nil {
			t.Errorf("%s: known-good event rejected: %v", kind, err)
			continue
		}
		blob, err := json.Marshal(s)
		if err != nil {
			t.Errorf("%s: marshal failed: %v", kind, err)
			continue
		}
		if _, err := Parse(bytes.NewReader(blob)); err != nil {
			t.Errorf("%s: wire form did not round-trip: %v\n%s", kind, err, blob)
		}
		bad := `{"name":"k","events":[` + strings.TrimSuffix(ev, "}") + `,"surprise":1}]}`
		if _, err := Parse(strings.NewReader(bad)); err == nil {
			t.Errorf("%s: unknown event field accepted", kind)
		}
	}
	if _, err := Parse(strings.NewReader(`{"name":"k","astonish":true}`)); err == nil {
		t.Error("unknown top-level field accepted")
	}
	if _, err := Parse(strings.NewReader(`{"bursts":[{"start":1,"end":2,"factor":2,"shape":"saw"}]}`)); err == nil {
		t.Error("unknown burst field accepted")
	}
}
