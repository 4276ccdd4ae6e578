package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestKilledServerFailsOver runs what make pool runs on loopback: three
// spawned daemons, nine jobs, the last daemon killed under the first job
// placed on it. Every job must verify, the pool must count the one replay,
// and the endpoint table must show the victim down.
func TestKilledServerFailsOver(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-spawn", "3", "-kill", "-jobs", "9"}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	text := out.String()
	if !strings.Contains(text, "batch: 9 jobs, 0 failed") {
		t.Errorf("not every job verified:\n%s", text)
	}
	if !strings.Contains(text, " Failovers=1 ") {
		t.Errorf("no failover reported:\n%s", text)
	}
	down := false
	for _, line := range strings.Split(text, "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[0] == "local-2" {
			down = f[1] == "false"
		}
	}
	if !down {
		t.Errorf("the killed daemon is not marked down:\n%s", text)
	}
}
