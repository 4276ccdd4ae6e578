package stats_test

import (
	"errors"
	"net"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"rcuda/internal/broker"
	"rcuda/internal/calib"
	"rcuda/internal/faults"
	"rcuda/internal/gpu"
	"rcuda/internal/kernels"
	"rcuda/internal/netsim"
	"rcuda/internal/protocol"
	"rcuda/internal/rcuda"
	"rcuda/internal/stats"
	"rcuda/internal/transport"
	"rcuda/internal/vclock"
)

type testCounts[T any] struct{ A, B, C T }

// TestLoadCopiesEveryField sets each live field to its own value and reads
// it back by position.
func TestLoadCopiesEveryField(t *testing.T) {
	var live testCounts[atomic.Int64]
	live.A.Add(1)
	live.B.Add(-2)
	live.C.Add(3 << 40)
	if got, want := stats.Load[testCounts[int64]](&live), (testCounts[int64]{1, -2, 3 << 40}); got != want {
		t.Fatalf("Load = %+v, want %+v", got, want)
	}
}

// TestLoadRejectsMismatchedShapes holds Load to the shared field list: a
// snapshot type with a different field count panics instead of copying a
// prefix.
func TestLoadRejectsMismatchedShapes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Load into a struct of a different shape did not panic")
		}
	}()
	var live testCounts[atomic.Int64]
	stats.Load[struct{ A, B int64 }](&live)
}

// Typed sinks keep the snapshots in the allocation check from being boxed.
var (
	serverSink    rcuda.ServerStats
	clientSink    rcuda.ClientStats
	poolSink      broker.PoolStats
	transportSink transport.Stats
)

// counterCase is one Stats method: snapshot calls it, workers add to its
// counters from their own goroutines, and count reads back the sum of the
// counters they added to, which must come to want.
type counterCase struct {
	name     string
	snapshot func()
	workers  []func()
	count    func() int64
	want     int64
}

// TestStatsSnapshots checks every Stats method built on Load: a snapshot
// allocates nothing, and while it is taken over and over on one goroutine,
// others add to the counters and every add is read back exactly. Run under
// -race (make verify includes this package) it also shows the loader reads
// the atomics only atomically.
func TestStatsSnapshots(t *testing.T) {
	const workers, each = 4, 50
	cases := append([]counterCase{
		serverCase(t, workers, each),
		clientCase(t, each),
		poolCase(t, workers, each),
	}, connCases(t, each)...)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if n := testing.AllocsPerRun(100, c.snapshot); n != 0 {
				t.Errorf("a snapshot allocates %v times", n)
			}
			var wg sync.WaitGroup
			for _, w := range c.workers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					w()
				}()
			}
			done := make(chan struct{})
			go func() {
				wg.Wait()
				close(done)
			}()
			for polling := true; polling; {
				select {
				case <-done:
					polling = false
				default:
					c.snapshot()
				}
			}
			if got := c.count(); got != c.want {
				t.Errorf("read back %d, want %d", got, c.want)
			}
		})
	}
}

// serverCase opens one probe connection per worker, each answering `each`
// stats queries.
func serverCase(t *testing.T, workers, each int) counterCase {
	clk := vclock.NewSim()
	srv := rcuda.NewServer(gpu.New(gpu.Config{Clock: clk}))
	d := rcuda.NewSimDaemon(srv, netsim.IB40G(), clk, nil)
	t.Cleanup(func() {
		if err := d.Wait(); err != nil {
			t.Error(err)
		}
		_ = srv.Close()
	})
	c := counterCase{
		name:     "Server",
		snapshot: func() { serverSink = srv.Stats() },
		count:    func() int64 { return srv.Stats().StatsQueries },
		want:     int64(workers * each),
	}
	for range workers {
		c.workers = append(c.workers, func() {
			conn, _ := d.Dial()
			defer conn.Close()
			for range each {
				if err := conn.Send(&protocol.StatsQueryRequest{}); err != nil {
					t.Error(err)
					return
				}
				if _, err := conn.Recv(); err != nil {
					t.Error(err)
					return
				}
			}
		})
	}
	return c
}

// clientCase answers `each` device-count calls from a caching client's
// query cache. A Client serves one goroutine at a time, so it has a single
// worker; the snapshots race with it.
func clientCase(t *testing.T, each int) counterCase {
	clk := vclock.NewSim()
	srv := rcuda.NewServer(gpu.New(gpu.Config{Clock: clk}))
	d := rcuda.NewSimDaemon(srv, netsim.IB40G(), clk, nil)
	mod, err := kernels.ModuleFor(calib.MM)
	if err != nil {
		t.Fatal(err)
	}
	img, err := mod.Binary()
	if err != nil {
		t.Fatal(err)
	}
	client, err := d.Open(img, rcuda.WithBatching(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = client.Close()
		if err := d.Wait(); err != nil {
			t.Error(err)
		}
		_ = srv.Close()
	})
	return counterCase{
		name:     "Client",
		snapshot: func() { clientSink = client.Stats() },
		workers: []func(){func() {
			for range each + 1 { // the first call fills the cache
				if _, err := client.DeviceCount(); err != nil {
					t.Error(err)
					return
				}
			}
		}},
		count: func() int64 { return client.Stats().CacheHits },
		want:  int64(each),
	}
}

// poolCase refreshes a pool of one unreachable endpoint from every worker:
// each refresh is one failed probe.
func poolCase(t *testing.T, workers, each int) counterCase {
	down := func() (transport.Conn, error) { return nil, errors.New("down") }
	pool, err := broker.New([]broker.Endpoint{{Name: "down", Dial: down}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pool.Close() })
	c := counterCase{
		name:     "Pool",
		snapshot: func() { poolSink = pool.Stats() },
		count: func() int64 {
			s := pool.Stats()
			return s.Probes + s.ProbeFailures
		},
		want: int64(2 * workers * each),
	}
	for range workers {
		c.workers = append(c.workers, func() {
			for range each {
				pool.Refresh()
			}
		})
	}
	return c
}

// connCases exchange `each` messages each way over a TCPConn, a PipeEnd and
// a FaultyConn with no faults planned. The end under test sends on one
// goroutine and receives on another, so two goroutines add to its counters.
func connCases(t *testing.T, each int) []counterCase {
	tcpA, tcpB := net.Pipe()
	pipeA, pipeB := transport.Pipe(netsim.IB40G(), vclock.NewSim(), nil)
	faultyA, faultyB := transport.Pipe(netsim.IB40G(), vclock.NewSim(), nil)
	pairs := []struct {
		name string
		a, b transport.Conn
	}{
		{"TCPConn", transport.NewTCPConn(tcpA), transport.NewTCPConn(tcpB)},
		{"PipeEnd", pipeA, pipeB},
		{"FaultyConn", transport.NewFaultyConn(faultyA, faults.Script()), faultyB},
	}
	send := func(c transport.Conn) func() {
		return func() {
			for range each {
				if err := c.Send(&protocol.StatsQueryRequest{}); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}
	recv := func(c transport.Conn) func() {
		return func() {
			for range each {
				if _, err := c.Recv(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}
	var cases []counterCase
	for _, p := range pairs {
		t.Cleanup(func() {
			_ = p.a.Close()
			_ = p.b.Close()
		})
		cases = append(cases, counterCase{
			name:     p.name,
			snapshot: func() { transportSink = p.a.Stats() },
			workers:  []func(){send(p.a), recv(p.b), send(p.b), recv(p.a)},
			count: func() int64 {
				s := p.a.Stats()
				return s.MessagesSent + s.MessagesRecv
			},
			want: int64(2 * each),
		})
	}
	return cases
}

// TestPairsNamesEveryCounter prints every counter set an operator sees and
// finds each field exactly once, with its own value.
func TestPairsNamesEveryCounter(t *testing.T) {
	for _, set := range []any{
		rcuda.ServerStats{}, rcuda.ClientStats{}, broker.PoolStats{},
		transport.Stats{}, broker.AutoscalerStats{},
	} {
		v := reflect.New(reflect.TypeOf(set)).Elem()
		for i := range v.NumField() {
			v.Field(i).SetInt(int64(100 + i))
		}
		out := stats.Pairs(v.Interface())
		seen := map[string]string{}
		for _, pair := range strings.Fields(out) {
			name, value, _ := strings.Cut(pair, "=")
			if _, dup := seen[name]; dup {
				t.Errorf("%T: %s printed twice in %q", set, name, out)
			}
			seen[name] = value
		}
		for i := range v.NumField() {
			name := v.Type().Field(i).Name
			if got, want := seen[name], strconv.Itoa(100+i); got != want {
				t.Errorf("%T: %s=%q in %q, want %s", set, name, got, out, want)
			}
		}
		if len(seen) != v.NumField() {
			t.Errorf("%T: %d pairs in %q, want %d", set, len(seen), out, v.NumField())
		}
	}
}
