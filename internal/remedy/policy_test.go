package remedy

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzParsePolicy: ParsePolicy (the PUT /remedy/policy decoder) never
// panics, a policy it accepts passes Validate, and re-encoding an
// accepted policy parses back to the same policy.
func FuzzParsePolicy(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"rules":[]}`))
	f.Add([]byte(`{"rules":[{"class":"*","actions":["reboot"]}],"hysteresis_steps":1,"max_actions_per_incident":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParsePolicy(data)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted policy fails Validate: %v", err)
		}
		again, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("accepted policy does not encode: %v", err)
		}
		back, err := ParsePolicy(again)
		if err != nil {
			t.Fatalf("re-encoded policy rejected: %v\n%s", err, again)
		}
		if !reflect.DeepEqual(back, p) {
			t.Fatalf("round trip changed the policy: %+v, was %+v", back, p)
		}
	})
}
