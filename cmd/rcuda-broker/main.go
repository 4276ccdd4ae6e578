// Command rcuda-broker runs a batch of verified GPU jobs through a live pool
// of rCUDA daemons — the deployment-side analogue of the paper's cluster
// sizing study: instead of simulating how many jobs N remote GPU servers can
// absorb, it places real sessions on real daemons and reports the placement,
// spill, and failover accounting.
//
// Point it at running daemons (cmd/rcudad):
//
//	rcuda-broker -servers host1:8308,host2:8308 -policy least-loaded -jobs 12
//
// or let it spawn an in-process pool for a self-contained demo, killing one
// server mid-batch to exercise failover:
//
//	rcuda-broker -spawn 3 -kill -jobs 9
//
// or live-migrating a staged session between two daemons after the batch:
//
//	rcuda-broker -spawn 2 -migrate
//
// Every job generates its own input data, runs MM or FFT on the placed
// server, and verifies the result against a CPU oracle; a batch only counts
// as clean when every job verifies.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"rcuda/internal/broker"
	"rcuda/internal/calib"
	"rcuda/internal/cudart"
	"rcuda/internal/gpu"
	"rcuda/internal/kernels"
	"rcuda/internal/rcuda"
	"rcuda/internal/stats"
	"rcuda/internal/transport"
	"rcuda/internal/vclock"
	"rcuda/internal/workload"
)

type spawned struct {
	srv  *rcuda.Server
	ln   net.Listener
	addr string
}

func spawnServer(gpus int) (*spawned, error) {
	opts := []rcuda.ServerOption{rcuda.WithCloseGrace(200 * time.Millisecond)}
	if gpus > 1 {
		extra := make([]*gpu.Device, gpus-1)
		for i := range extra {
			extra[i] = gpu.New(gpu.Config{Clock: vclock.NewWall()})
		}
		opts = append(opts, rcuda.WithDevices(extra...))
	}
	srv := rcuda.NewServer(gpu.New(gpu.Config{Clock: vclock.NewWall()}), opts...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() { _ = srv.Serve(ln) }()
	return &spawned{srv: srv, ln: ln, addr: ln.Addr().String()}, nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run places the batch the flags in argv describe, logs each job's outcome,
// and prints the batch summary, the endpoint table and the pool counters to
// out. It fails when a job (or the -migrate demo) did not verify.
func run(argv []string, out io.Writer) error {
	fs := flag.NewFlagSet("rcuda-broker", flag.ExitOnError)
	servers := fs.String("servers", "", "comma-separated daemon addresses; empty spawns an in-process pool")
	spawn := fs.Int("spawn", 3, "number of in-process daemons to spawn when -servers is empty")
	gpus := fs.Int("gpus", 1, "devices per spawned daemon")
	policyName := fs.String("policy", "least-loaded", "placement policy: least-loaded, round-robin, network-aware, class-aware")
	jobs := fs.Int("jobs", 9, "number of jobs in the batch (alternating MM and FFT)")
	mm := fs.Int("mm", 64, "MM matrix dimension (multiple of 16)")
	fftBatch := fs.Int("fft", 8, "FFT batch size")
	probe := fs.Duration("probe", 100*time.Millisecond, "background health-probe interval")
	kill := fs.Bool("kill", false, "kill one spawned server mid-batch to exercise failover")
	migrate := fs.Bool("migrate", false, "after the batch, live-migrate a staged session between spawned servers and verify its state survived")
	_ = fs.Parse(argv) // ExitOnError: a bad flag exits here

	policy, err := broker.ParsePolicy(*policyName)
	if err != nil {
		return err
	}

	var eps []broker.Endpoint
	var local []*spawned
	if *servers != "" {
		if *kill || *migrate {
			return errors.New("-kill and -migrate only apply to spawned servers")
		}
		for _, addr := range strings.Split(*servers, ",") {
			addr := strings.TrimSpace(addr)
			eps = append(eps, broker.Endpoint{
				Name: addr,
				Dial: func() (transport.Conn, error) { return transport.DialTCP(addr) },
			})
		}
	} else {
		if *spawn < 1 {
			return fmt.Errorf("-spawn %d: need at least one server", *spawn)
		}
		defer func() {
			for _, s := range local {
				_ = s.srv.Close()
			}
		}()
		for i := 0; i < *spawn; i++ {
			s, err := spawnServer(*gpus)
			if err != nil {
				return err
			}
			local = append(local, s)
			addr := s.addr
			eps = append(eps, broker.Endpoint{
				Name: fmt.Sprintf("local-%d", i),
				Dial: func() (transport.Conn, error) { return transport.DialTCP(addr) },
			})
			log.Printf("spawned %s at %s (%d device(s))", eps[i].Name, addr, *gpus)
		}
	}

	pool, err := broker.New(eps,
		broker.WithPolicy(policy),
		broker.WithProbeInterval(*probe))
	if err != nil {
		return err
	}
	defer pool.Close()
	pool.Refresh()

	// With -kill, the first job placed on the last spawned server pulls the
	// server out from under itself before doing its work, so the session is
	// lost mid-run and the pool must replay the job elsewhere.
	killed := false
	victimName := ""
	if *kill {
		if len(local) < 2 {
			return errors.New("-kill needs at least two spawned servers")
		}
		victimName = eps[len(local)-1].Name
	}
	killVictim := func() {
		victim := local[len(local)-1]
		log.Printf("killing %s mid-job", victimName)
		_ = victim.ln.Close()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_ = victim.srv.Drain(ctx)
	}

	start := time.Now()
	failed := 0
	for i := 0; i < *jobs; i++ {
		cs, size := calib.MM, *mm
		if i%2 == 1 {
			cs, size = calib.FFT, *fftBatch
		}
		mod, err := kernels.ModuleFor(cs)
		if err != nil {
			return err
		}
		img, err := mod.Binary()
		if err != nil {
			return err
		}
		seed := int64(i) + 1
		err = pool.Run(img, broker.JobSpec{CS: cs, Size: size}, func(rt cudart.Runtime) error {
			if !killed && victimName != "" {
				if s, ok := rt.(*broker.Session); ok && s.Endpoint == victimName {
					killed = true
					killVictim()
				}
			}
			ok, err := workload.ExecuteFunctional(cs, size, rt, seed)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("job %d failed verification", i)
			}
			return nil
		})
		if err != nil {
			log.Printf("job %d (%v size %d): %v", i, cs, size, err)
			failed++
			continue
		}
		log.Printf("job %d (%v size %d): verified", i, cs, size)
	}
	elapsed := time.Since(start)

	fmt.Fprintf(out, "\nbatch: %d jobs, %d failed, wall time %v, policy %s\n\n",
		*jobs, failed, elapsed.Round(time.Millisecond), policy)

	w := tabwriter.NewWriter(out, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "endpoint\tup\tdevices\tsessions\tparked\tbytes\tbusy\tlast error")
	for _, st := range pool.Endpoints() {
		busy := time.Duration(st.BusyNanos).Round(time.Microsecond)
		lastErr := st.LastErr
		if lastErr == "" {
			lastErr = "-"
		}
		fmt.Fprintf(w, "%s\t%t\t%d\t%d\t%d\t%d\t%v\t%s\n",
			st.Name, st.Up, st.Devices, st.SessionsLive, st.SessionsParked,
			st.BytesInUse, busy, lastErr)
	}
	if err := w.Flush(); err != nil {
		return err
	}

	if *migrate {
		if err := migrateDemo(pool, local); err != nil {
			log.Printf("migrate demo: %v", err)
			failed++
		}
	}

	fmt.Fprintf(out, "\npool: %s\n", stats.Pairs(pool.Stats()))
	if failed > 0 {
		return fmt.Errorf("%d failed verification (see the log)", failed)
	}
	return nil
}

// migrateDemo opens a durable session on one spawned daemon, uploads a
// payload, live-migrates the session to a pool-picked peer, and reads the
// payload back through the re-pointed route — proving the device state
// crossed daemons bit for bit with nothing replayed.
func migrateDemo(pool *broker.Pool, local []*spawned) error {
	if len(local) < 2 {
		return fmt.Errorf("-migrate needs at least two spawned servers")
	}
	mod, err := kernels.ModuleFor(calib.MM)
	if err != nil {
		return err
	}
	img, err := mod.Binary()
	if err != nil {
		return err
	}
	sess, err := pool.Open(img, broker.JobSpec{})
	if err != nil {
		return err
	}
	defer sess.Close()
	payload := make([]byte, 1<<16)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	ptr, err := sess.Malloc(uint32(len(payload)))
	if err != nil {
		return err
	}
	if err := sess.MemcpyToDevice(ptr, payload); err != nil {
		return err
	}
	// The pool holds handles to the spawned daemons, so it can drive the
	// source directly; find the one hosting the session.
	var src *rcuda.Server
	for i, s := range local {
		if fmt.Sprintf("local-%d", i) == sess.Endpoint {
			src = s.srv
		}
	}
	if src == nil {
		return fmt.Errorf("session landed on unknown endpoint %q", sess.Endpoint)
	}
	from := sess.Endpoint
	if err := pool.Migrate(sess, src); err != nil {
		return err
	}
	got := make([]byte, len(payload))
	if err := sess.MemcpyToHost(got, ptr); err != nil {
		return err
	}
	for i := range got {
		if got[i] != payload[i] {
			return fmt.Errorf("payload byte %d corrupted across migration", i)
		}
	}
	log.Printf("migrated session %d from %s to %s, %d-byte payload intact",
		sess.SessionID(), from, sess.Endpoint, len(payload))
	return nil
}
