package main

import (
	"bytes"
	"log"
	"reflect"
	"strings"
	"testing"

	"rcuda/internal/gpu"
	"rcuda/internal/rcuda"
	"rcuda/internal/vclock"
)

// TestLogSnapshotNamesEveryCounter holds the SIGUSR1 dump to the counter
// declaration: a counter added to rcuda.ServerStats reaches the operator
// with no edit here.
func TestLogSnapshotNamesEveryCounter(t *testing.T) {
	srv := rcuda.NewServer(gpu.New(gpu.Config{Clock: vclock.NewSim()}))
	defer srv.Close()
	var out bytes.Buffer
	logSnapshot(log.New(&out, "", 0), srv.StatsSnapshot())
	fields := reflect.TypeOf(rcuda.ServerStats{})
	for i := range fields.NumField() {
		if name := fields.Field(i).Name; !strings.Contains(out.String(), " "+name+"=0") {
			t.Errorf("snapshot log has no %s=0:\n%s", name, out.String())
		}
	}
}
