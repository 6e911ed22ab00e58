package scenario

import (
	"bytes"
	"strings"
	"testing"
)

func TestBeliefPolicyValidate(t *testing.T) {
	valid := []BeliefPolicy{
		{},
		{Kind: BeliefOracle},
		{Kind: BeliefFrozen},
		{Kind: BeliefOnline},
		{Kind: BeliefOnline, Refresh: 10, MinSamples: 5, Bins: 16},
		{Kind: BeliefOnline, Bins: 2},
	}
	for i, p := range valid {
		if err := p.Validate(); err != nil {
			t.Errorf("valid policy %d (%s) rejected: %v", i, &p, err)
		}
	}
	var nilPolicy *BeliefPolicy
	if err := nilPolicy.Validate(); err != nil {
		t.Errorf("nil policy rejected: %v", err)
	}
	invalid := []BeliefPolicy{
		{Kind: BeliefKind(99)},
		{Kind: BeliefOnline, Refresh: -1},    // negative cadence
		{Kind: BeliefOnline, MinSamples: -5}, // negative floor
		{Kind: BeliefOnline, Bins: -8},       // negative bins
		{Kind: BeliefOnline, Bins: 1},        // one bin cannot bracket a distribution
		{Kind: BeliefFrozen, Refresh: 10},    // knob without the online kind
		{Kind: BeliefOracle, MinSamples: 5},  // knob without the online kind
		{Kind: BeliefFrozen, Bins: 16},       // knob without the online kind
		{Kind: BeliefOracle, Refresh: -1},    // inapplicable and negative
	}
	for i, p := range invalid {
		if err := p.Validate(); err == nil {
			t.Errorf("invalid policy %d (%+v) accepted", i, p)
		}
	}
}

func TestBeliefEffectiveKnobs(t *testing.T) {
	var nilPolicy *BeliefPolicy
	if nilPolicy.EffectiveRefresh() != DefaultBeliefRefresh ||
		nilPolicy.EffectiveMinSamples() != DefaultBeliefMinSamples ||
		nilPolicy.EffectiveBins() != DefaultBeliefBins {
		t.Error("nil policy must resolve to the defaults")
	}
	p := &BeliefPolicy{Kind: BeliefOnline}
	if p.EffectiveRefresh() != DefaultBeliefRefresh || p.EffectiveMinSamples() != DefaultBeliefMinSamples || p.EffectiveBins() != DefaultBeliefBins {
		t.Error("zero knobs must resolve to the defaults")
	}
	q := &BeliefPolicy{Kind: BeliefOnline, Refresh: 7, MinSamples: 3, Bins: 8}
	if q.EffectiveRefresh() != 7 || q.EffectiveMinSamples() != 3 || q.EffectiveBins() != 8 {
		t.Error("set knobs must win over the defaults")
	}
	if nilPolicy.Enabled() || (&BeliefPolicy{}).Enabled() || !(&BeliefPolicy{Kind: BeliefFrozen}).Enabled() {
		t.Error("Enabled() misclassifies")
	}
}

func TestBeliefJSONRoundTrip(t *testing.T) {
	src := `{"name":"b","events":[{"tick":100,"kind":"drift","machine":1,"until":500,"from":1,"to":3,"steps":4}],
		"belief":{"kind":"online","refresh":10,"min_samples":5,"bins":16}}`
	s, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	p := s.Belief
	if p == nil || p.Kind != BeliefOnline || p.Refresh != 10 || p.MinSamples != 5 || p.Bins != 16 {
		t.Fatalf("parsed policy %+v, want online/10/5/16", p)
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
	if *again.Belief != *p {
		t.Fatalf("round trip changed the policy: %+v vs %+v", again.Belief, p)
	}
	// The frozen and oracle kinds round-trip without knobs.
	for _, kind := range []string{"oracle", "frozen"} {
		s, err := Parse(strings.NewReader(`{"belief":{"kind":"` + kind + `"}}`))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		blob, err := s.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		again, err := Parse(bytes.NewReader(blob))
		if err != nil || *again.Belief != *s.Belief {
			t.Fatalf("%s did not round-trip: %v (%+v vs %+v)", kind, err, s.Belief, again.Belief)
		}
	}
}

func TestBeliefJSONRejections(t *testing.T) {
	parseFail := []string{
		`{"belief":{"kind":"psychic"}}`,                  // unknown kind
		`{"belief":{"kind":"online","cadence":5}}`,       // unknown field
		`{"belief":{"kind":"online","refresh":"often"}}`, // non-numeric cadence
		`{"belief":{"kind":"online","min_samples":2.5}}`, // fractional floor
		`{"belief":{}}`, // missing kind
	}
	for _, src := range parseFail {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("parser accepted %s", src)
		}
	}
	// Structurally fine JSON whose policy fails fleet-independent validation.
	validateFail := []string{
		`{"belief":{"kind":"online","refresh":-1}}`,     // negative cadence
		`{"belief":{"kind":"online","min_samples":-5}}`, // negative floor
		`{"belief":{"kind":"online","bins":1}}`,         // one bin
		`{"belief":{"kind":"frozen","min_samples":5}}`,  // knob without online
		`{"belief":{"kind":"oracle","refresh":3}}`,      // knob without online
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
