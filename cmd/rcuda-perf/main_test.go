package main

import (
	"bytes"
	"net"
	"strings"
	"testing"

	"rcuda"
)

// TestAllOperationsAgainstLiveDaemon runs -op all against a daemon serving
// on loopback: every operation's row must be printed and no error return.
func TestAllOperationsAgainstLiveDaemon(t *testing.T) {
	server := rcuda.NewServer(rcuda.NewDevice())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- server.Serve(ln) }()
	defer func() {
		server.Close()
		if err := <-served; err != nil {
			t.Error(err)
		}
	}()

	var out bytes.Buffer
	if err := run([]string{"-server", ln.Addr().String(), "-op", "all", "-reps", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	rows := make(map[string]string)
	for _, line := range strings.Split(out.String(), "\n") {
		if name, rest, ok := strings.Cut(line, "  "); ok {
			rows[name] = strings.TrimSpace(rest)
		}
	}
	for _, name := range []string{
		"cudaDeviceSynchronize", "cudaMalloc+cudaFree", "cudaMemcpy H2D 1048576B",
		"cudaMemcpy D2H 1048576B", "cudaLaunch sgemmNN m=32",
	} {
		if !strings.HasPrefix(rows[name], "3 ") {
			t.Errorf("no %q row of 3 reps in\n%s", name, out.String())
		}
	}
}
