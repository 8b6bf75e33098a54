package icegate

import (
	"encoding/json"
	"strings"
	"testing"
)

// duration_s must convert to a positive sim.Time: past 2^63 ns the
// conversion wraps negative and under 1 ns it truncates to zero, and
// either would run the scenario's default horizon under this key.
func TestValidateDurationRange(t *testing.T) {
	for _, tc := range []struct {
		d  float64
		ok bool
	}{
		{0, true}, {1e-9, true}, {600, true}, {9.2e9, true},
		{1e-12, false}, {9.3e9, false}, {1e12, false},
	} {
		err := Request{Scenario: "pca-supervised", DurationS: tc.d}.Validate()
		if tc.ok {
			if err != nil {
				t.Errorf("duration_s %g rejected: %v", tc.d, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "9.223372036854776e+09") {
			t.Errorf("duration_s %g: err = %v, want a rejection naming the limit", tc.d, err)
		}
	}
}

// FuzzSubmitRequest holds the submit path's decode and validation to
// their contract without running a job: every body Validate accepts
// has a horizon the sim clock can hold, a cache key that survives a
// JSON round trip, and a tenant and lane that normalize to valid
// identities.
func FuzzSubmitRequest(f *testing.F) {
	for _, body := range []string{
		`{"scenario":"pca-supervised","seed":7,"cells":2,"duration_s":600}`,
		`{"scenario":"pca-commfault","knobs":{"loss":0.15,"failsafe":1},"tenant":"clinician","lane":"batch"}`,
		`{"scenario":"xray-ventsync","duration_s":-0,"knobs":{"requests":12},"trace":true}`,
		`{"exp":"F1","seed":-3,"cells":4}`,
		`{"scenario":"pca-supervised","duration_s":1e12}`,  // overflows sim.Time
		`{"scenario":"pca-supervised","duration_s":1e-12}`, // truncates to zero
		`{"scenario":"tele-icu-probe","tenant":"a b","lane":"bulk"}`,
		`{}`, `null`, `[`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req Request
		if json.Unmarshal(body, &req) != nil || req.Validate() != nil {
			return
		}
		if d := req.duration(); d < 0 || (req.DurationS != 0 && d == 0) {
			t.Fatalf("duration_s %g accepted as sim time %d", req.DurationS, d)
		}
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request does not marshal: %v", err)
		}
		var back Request
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("accepted request does not round-trip: %v", err)
		}
		if got, want := back.Key(), req.Key(); got != want {
			t.Fatalf("key changed over a JSON round trip:\n%s\n%s", got, want)
		}
		n := req.normalized()
		if !tenantNameRE.MatchString(n.Tenant) {
			t.Fatalf("tenant %q normalized to invalid %q", req.Tenant, n.Tenant)
		}
		if n.Lane != LaneInteractive && n.Lane != LaneBatch {
			t.Fatalf("lane %q normalized to invalid %q", req.Lane, n.Lane)
		}
	})
}
