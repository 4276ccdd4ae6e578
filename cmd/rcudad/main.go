// Command rcudad is the rCUDA server daemon: it owns the node's (simulated)
// GPU and serves CUDA requests from remote clients over TCP, exactly as the
// paper's "GPU network service listening for requests on a TCP port".
//
// Each accepted connection gets its own pre-initialized CUDA context, so
// concurrent clients time-share the GPU and no client pays the CUDA
// environment start-up delay.
//
// The hardening flags bound what any one client can take from the shared
// node: -max-sessions/-max-conns/-queue-depth gate admission,
// -session-mem/-max-allocs cap a session's device memory, -req-deadline
// kills stalled connections, and -parked-ttl reclaims abandoned durable
// sessions. SIGUSR1 prints an operational stats snapshot; on SIGINT/SIGTERM
// the daemon drains gracefully within -drain-grace and prints a final
// snapshot.
//
// -sched turns on the per-device scheduler: ops dispatch through a
// weighted fair queue with realtime > batch > besteffort priority classes
// (clients declare a class in their session hello), yielding the device
// only at op boundaries so results stay bit-exact; -class-weights tunes the
// class multipliers. Per-class queue waits and served/preempted counters
// appear in the SIGUSR1 snapshot and the stats probe's class block.
//
// The migration flags make the daemon a live-migration peer: -session-id-base
// carves out a disjoint durable-id range so restored sessions never collide
// with locally minted ones, -standby-peer streams periodic checkpoints of
// parked sessions to a named peer so clients can resume there if this daemon
// dies, and -migrate-chunk tunes the outbound checkpoint stream.
//
// Usage:
//
//	rcudad [-listen :8308] [-mem 4096] [-quiet] [hardening flags]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rcuda/internal/gpu"
	_ "rcuda/internal/kernels" // register the case-study GPU modules
	"rcuda/internal/rcuda"
	"rcuda/internal/sched"
	"rcuda/internal/stats"
	"rcuda/internal/transport"
	"rcuda/internal/vclock"
)

// logSnapshot prints the operator view of the daemon: live session
// gauges, every cumulative counter, and device-occupancy gauges.
func logSnapshot(logger *log.Logger, snap rcuda.StatsSnapshot) {
	logger.Printf("stats: sessions live=%d parked=%d", snap.SessionsLive, snap.SessionsParkedNow)
	logger.Printf("stats: %s", stats.Pairs(snap.ServerStats))
	for i, du := range snap.Devices {
		logger.Printf("stats: device %d %q: %d bytes in %d allocations, %d sessions, busy %v",
			i, du.Name, du.BytesInUse, du.Allocations, du.Sessions, du.Busy)
	}
	for _, cu := range snap.Classes {
		logger.Printf("stats: class %s: %d sessions, served=%d preempted=%d wait p50=%v p99=%v",
			cu.Class, cu.Sessions, cu.Served, cu.Preempted, cu.WaitP50, cu.WaitP99)
	}
}

// parseClassWeights decodes "realtime,batch,besteffort" multipliers; a zero
// entry keeps that class's default.
func parseClassWeights(s string) ([sched.NumClasses]uint32, error) {
	var w [sched.NumClasses]uint32
	parts := strings.Split(s, ",")
	if len(parts) != sched.NumClasses {
		return w, fmt.Errorf("-class-weights wants %d comma-separated values, got %q", sched.NumClasses, s)
	}
	for i, p := range parts {
		v, err := strconv.ParseUint(strings.TrimSpace(p), 10, 32)
		if err != nil {
			return w, fmt.Errorf("-class-weights %q: %v", s, err)
		}
		w[i] = uint32(v)
	}
	return w, nil
}

func main() {
	listen := flag.String("listen", ":8308", "TCP address to listen on")
	memMiB := flag.Uint64("mem", 4096, "device memory in MiB (Tesla C1060: 4096)")
	gpus := flag.Int("gpus", 1, "number of GPUs this node serves")
	devices := flag.Int("devices", 0, "alias for -gpus (broker deployments use this name); 0 defers to -gpus")
	spread := flag.Bool("spread", false, "start sessions on the GPUs round robin instead of device 0")
	quiet := flag.Bool("quiet", false, "suppress per-session logging")

	maxSessions := flag.Int("max-sessions", 0, "max concurrent sessions, attached or parked (0 = unlimited)")
	maxConns := flag.Int("max-conns", 0, "max concurrently served connections (0 = unlimited)")
	queueDepth := flag.Int("queue-depth", 0, "handshakes that may queue for a session slot instead of being rejected")
	queueWait := flag.Duration("queue-wait", time.Second, "how long a queued handshake waits for a slot")
	sessionMemMiB := flag.Uint64("session-mem", 0, "per-session device memory cap in MiB (0 = unlimited)")
	maxAllocs := flag.Int("max-allocs", 0, "per-session live allocation cap (0 = unlimited)")
	reqDeadline := flag.Duration("req-deadline", 0, "request watchdog: kill connections idle or stalled past this (0 = off)")
	parkedTTL := flag.Duration("parked-ttl", 0, "destroy parked durable sessions not reattached within this (0 = keep until shutdown)")
	drainGrace := flag.Duration("drain-grace", rcuda.DefaultCloseGrace, "how long shutdown lets in-flight sessions finish")

	schedPolicy := flag.String("sched", "", "per-device scheduler: \"wfq\" for weighted fair queueing with priority classes, \"fifo\" for explicit arrival order, empty = scheduler off (legacy pass-through)")
	classWeights := flag.String("class-weights", "", "comma-separated realtime,batch,besteffort class weight multipliers (default 100,10,1); requires -sched")

	sessionIDBase := flag.Uint64("session-id-base", 0, "mint durable session ids above this; daemons that exchange sessions by migration need disjoint ranges")
	migrateChunk := flag.Uint("migrate-chunk", 0, "chunk size in bytes for outbound migration streams (0 = protocol default)")
	standbyPeer := flag.String("standby-peer", "", "host:port of a peer daemon to stream standby checkpoints of parked sessions to")
	standbyEvery := flag.Duration("standby-interval", time.Second, "how often parked sessions are swept to -standby-peer")
	flag.Parse()
	if *devices != 0 {
		if *devices < 1 {
			log.Fatalf("rcudad: -devices %d must be at least 1", *devices)
		}
		*gpus = *devices
	}
	if *gpus < 1 {
		log.Fatalf("rcudad: -gpus %d must be at least 1", *gpus)
	}

	logger := log.New(os.Stderr, "rcudad: ", log.LstdFlags)
	clock := vclock.NewWall()
	devs := make([]*gpu.Device, *gpus)
	for i := range devs {
		devs[i] = gpu.New(gpu.Config{
			Clock:       clock,
			MemoryBytes: *memMiB << 20,
		})
	}
	dev := devs[0]

	opts := []rcuda.ServerOption{
		rcuda.WithDevices(devs[1:]...),
		rcuda.WithMaxSessions(*maxSessions),
		rcuda.WithMaxConns(*maxConns),
		rcuda.WithAdmissionQueue(*queueDepth, *queueWait),
		rcuda.WithSessionMemoryLimit(*sessionMemMiB << 20),
		rcuda.WithMaxAllocsPerSession(*maxAllocs),
		rcuda.WithRequestDeadline(*reqDeadline),
		rcuda.WithParkedSessionTTL(*parkedTTL),
	}
	if *spread {
		opts = append(opts, rcuda.WithSessionSpread())
	}
	if *schedPolicy != "" {
		policy, err := sched.ParsePolicy(*schedPolicy)
		if err != nil {
			log.Fatalf("rcudad: %v", err)
		}
		opts = append(opts, rcuda.WithScheduler(policy))
		if *classWeights != "" {
			w, err := parseClassWeights(*classWeights)
			if err != nil {
				log.Fatalf("rcudad: %v", err)
			}
			opts = append(opts, rcuda.WithClassWeights(w))
		}
	} else if *classWeights != "" {
		log.Fatal("rcudad: -class-weights requires -sched")
	}
	if *sessionIDBase > 0 {
		opts = append(opts, rcuda.WithSessionIDBase(*sessionIDBase))
	}
	if *migrateChunk > 0 {
		opts = append(opts, rcuda.WithMigrateChunkSize(uint32(*migrateChunk)))
	}
	if *standbyPeer != "" {
		peer := *standbyPeer
		opts = append(opts, rcuda.WithStandbyPeer(
			func() (transport.Conn, error) { return transport.DialTCP(peer) },
			*standbyEvery))
	}
	if !*quiet {
		opts = append(opts, rcuda.WithLogger(logger))
	}
	srv := rcuda.NewServer(dev, opts...)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		logger.Fatalf("listen: %v", err)
	}
	logger.Printf("serving %d x %s (%d MiB each) on %s, modules: %v",
		*gpus, dev.Name(), *memMiB, ln.Addr(), gpu.RegisteredModules())

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGUSR1)
	go func() {
		for s := range sig {
			if s == syscall.SIGUSR1 {
				logSnapshot(logger, srv.StatsSnapshot())
				continue
			}
			logger.Printf("shutting down, draining for up to %v", *drainGrace)
			ctx, cancel := context.WithTimeout(context.Background(), *drainGrace)
			if err := srv.Drain(ctx); err != nil {
				logger.Printf("drain: %v", err)
			}
			cancel()
			return
		}
	}()

	if err := srv.Serve(ln); err != nil {
		logger.Fatalf("serve: %v", err)
	}
	logSnapshot(logger, srv.StatsSnapshot())
}
