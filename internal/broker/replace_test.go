package broker

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"testing"

	"rcuda/internal/calib"
	"rcuda/internal/cudart"
	"rcuda/internal/gpu"
	"rcuda/internal/kernels"
	"rcuda/internal/rcuda"
	"rcuda/internal/transport"
	"rcuda/internal/vclock"
)

// TestChaosFailoverToDifferentDeviceShape pins the cache-coherence property
// the broker relies on: a batching+caching session that fails over to a
// daemon with a differently shaped GPU must see the NEW device's
// properties, never the dead daemon's cached ones. The pool replays the job
// on a fresh client, so the cache is empty by construction — this test
// would catch any future change that carries client state across a
// re-placement.
func TestChaosFailoverToDifferentDeviceShape(t *testing.T) {
	shapes := []gpu.Config{
		{Name: "Tesla C1060 (shape A)", MemoryBytes: 4 << 30},
		{Name: "Tesla M2050 (shape B)", MemoryBytes: 3 << 30},
	}
	type server struct {
		srv *rcuda.Server
		ln  net.Listener
	}
	servers := make([]*server, len(shapes))
	eps := make([]Endpoint, len(shapes))
	for i, cfg := range shapes {
		cfg.Clock = vclock.NewWall()
		srv := rcuda.NewServer(gpu.New(cfg))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = srv.Serve(ln) }()
		addr := ln.Addr().String()
		servers[i] = &server{srv: srv, ln: ln}
		eps[i] = Endpoint{
			Name: fmt.Sprintf("s%d", i),
			Dial: func() (transport.Conn, error) { return transport.DialTCP(addr) },
		}
	}
	defer func() {
		for _, s := range servers {
			_ = s.srv.Close()
		}
	}()

	pool, err := New(eps, WithPolicy(RoundRobin),
		withClientOptions(rcuda.WithBatching(0, 0)))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	job := chaosJob{calib.MM, 32, 23}
	golden := goldenBytes(t, job)
	mod, err := kernels.ModuleFor(job.cs)
	if err != nil {
		t.Fatal(err)
	}
	img, err := mod.Binary()
	if err != nil {
		t.Fatal(err)
	}

	var attempts int
	propsSeen := make([]gpu.Properties, 0, 2)
	var result []byte
	err = pool.Run(img, JobSpec{CS: job.cs, Size: job.size}, func(rt cudart.Runtime) error {
		attempts++
		sess := rt.(*Session)
		// The serving-loop poll: fills the per-session cache, and a second
		// poll must be answered locally.
		props, err := sess.DeviceProperties()
		if err != nil {
			return err
		}
		propsSeen = append(propsSeen, props)
		again, err := sess.DeviceProperties()
		if err != nil {
			return err
		}
		if again != props {
			return fmt.Errorf("repeated poll drifted: %+v vs %+v", again, props)
		}
		if attempts == 1 {
			// First placement: round-robin starts on s0. Kill it under the
			// live session so the next exchange reports session loss and
			// the pool re-places the job on the other daemon.
			if sess.Endpoint != "s0" {
				return fmt.Errorf("first placement on %s, want s0", sess.Endpoint)
			}
			_ = servers[0].ln.Close()
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_ = servers[0].srv.Drain(ctx)
		}
		out, err := job.run(rt)
		if err != nil {
			return err
		}
		result = out
		return nil
	})
	if err != nil {
		t.Fatalf("job did not survive the failover: %v", err)
	}

	if attempts != 2 {
		t.Fatalf("job ran %d times, want 2 (original + one failover replay)", attempts)
	}
	if got := pool.Stats().Failovers; got != 1 {
		t.Fatalf("pool counted %d failovers, want 1", got)
	}
	if !bytes.Equal(result, golden) {
		t.Fatal("replayed result differs from the local run")
	}
	if propsSeen[0].Name != shapes[0].Name || propsSeen[0].MemoryBytes != shapes[0].MemoryBytes {
		t.Fatalf("first attempt saw %+v, want shape A", propsSeen[0])
	}
	// The decisive check: after re-placement the session reports shape B.
	// Serving shape A here would mean cached properties outlived the daemon
	// that produced them.
	if propsSeen[1].Name != shapes[1].Name || propsSeen[1].MemoryBytes != shapes[1].MemoryBytes {
		t.Fatalf("after failover the session saw %+v, want shape B (%s)", propsSeen[1], shapes[1].Name)
	}
}
