package api

import (
	"strings"
	"testing"
)

func TestParseSpecExperiment(t *testing.T) {
	spec, err := ParseSpec([]byte(`{"experiment": "fig2", "name": "nightly"}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Experiment != "fig2" || spec.Name != "nightly" {
		t.Fatalf("parsed %+v", spec)
	}
}

func TestParseSpecJobs(t *testing.T) {
	spec, err := ParseSpec([]byte(`{"jobs": [
		{"app": "LU", "config": {"Procs": 4}},
		{"app": "MP3D"}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Jobs) != 2 || spec.Jobs[0].App != "LU" || string(spec.Jobs[0].Config) != `{"Procs": 4}` {
		t.Fatalf("parsed %+v", spec)
	}
}

func TestParseSpecRejects(t *testing.T) {
	cases := []struct {
		raw  string
		want string // substring of the error
	}{
		{`{}`, "need an experiment name or a job list"},
		{`{"experiment": "fig2", "jobs": [{"app": "LU"}]}`, "mutually exclusive"},
		{`{"experimnt": "fig2"}`, "unknown field"},
		{`{"experiment": "fig2"} {"experiment": "fig3"}`, "trailing data"},
		{`{"jobs": [{"config": {}}]}`, "job 0: missing app"},
		{`not json`, "sweep spec"},
	}
	for _, c := range cases {
		_, err := ParseSpec([]byte(c.raw))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseSpec(%s) err = %v, want %q", c.raw, err, c.want)
		}
	}
}
