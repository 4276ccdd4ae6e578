package rcuda

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"rcuda/internal/cudart"
	"rcuda/internal/gpu"
	"rcuda/internal/protocol"
	"rcuda/internal/transport"
)

// Client is the client side of the middleware: a cudart.Runtime whose every
// method is a remote procedure call to an rCUDA server. Applications built
// against cudart.Runtime cannot tell it from a local GPU — the paper's
// "illusion of being a real GPU".
//
// A Client is not safe for concurrent use by multiple goroutines: the
// protocol is strictly synchronous request/response, matching the paper's
// scope (asynchronous transfers are explicitly future work there).
//
// Close tears the session down: it sends the finalization message, closes
// the transport, and detaches the observer. After Close — which is
// idempotent — every Runtime method fails with cudart.ErrorInitialization,
// mirroring how the CUDA runtime reports calls after cudaDeviceReset.
type Client struct {
	conn     transport.Conn
	capMajor uint32
	capMinor uint32
	closed   atomic.Bool
	// Chunked-transfer tuning; chunkThreshold 0 disables the chunked
	// protocol entirely (the wire-compatible Table I default).
	chunkThreshold int
	chunkSize      uint32
	// hooks for tracing; nil-safe.
	observer Observer
	// Retry/reconnect policy (see WithRetry and WithReconnect). The
	// mutable connection state shares the Client's single-goroutine
	// contract; only the counters are read concurrently via Stats.
	retryMax     int
	retryBackoff time.Duration
	retryRNG     *rand.Rand // created by the first backoff; see jitter
	dial         func() (transport.Conn, error)
	sessionID    uint64
	durable      bool
	connBroken   bool
	lost         bool
	cstats       clientCounters
	// Batching state (see batch.go). pendSubs holds the encoded sub-ops of
	// the open batch, each a slice of pendBuf; deferredErr is the oldest
	// unreported batched-call failure, surfaced at the next sync point.
	batching      bool
	batchMaxOps   int
	batchMaxBytes int
	pendSubs      [][]byte
	pendBuf       []byte
	pendBytes     int
	batchSeq      uint64
	deferredErr   error
	// Immutable-reply cache (see cache.go). curDev tracks the device index
	// selected with SetDevice, keying the properties cache; synced is the
	// event the last successful EventSynchronize waited on, while syncedOK.
	caching    bool
	devCount   int
	devCountOK bool
	props      map[int]gpu.Properties
	curDev     int
	synced     cudart.Event
	syncedOK   bool
	// Scheduling parameters declared in the session hello (WithSchedClass);
	// both zero means a bare hello.
	schedClass  uint32
	schedWeight uint32
	// toHost is the Lander of the device-to-host exchange in flight; it
	// lives here so that offering it to the transport allocates nothing.
	toHost hostLander
	// req is where the call in flight builds its request (DESIGN.md §23):
	// a Client runs one call at a time, so a request lives until the call
	// returns and the next of its type overwrites it.
	req requests
}

// requests holds one request of each type a Client sends with fields to
// fill, each made by the first call that needs it (protocol.Put). The calls that
// put the application's memory in one — a launch's Params, a copy's Data —
// clear the field when they return, so the client does not keep the
// application's buffer alive between calls.
type requests struct {
	malloc        *protocol.MallocRequest
	free          *protocol.FreeRequest
	toDevice      *protocol.MemcpyToDeviceRequest
	toHost        *protocol.MemcpyToHostRequest
	launch        *protocol.LaunchRequest
	streamOp      *protocol.StreamOpRequest
	toDeviceAsync *protocol.MemcpyToDeviceAsyncRequest
	toHostAsync   *protocol.MemcpyToHostAsyncRequest
	eventRecord   *protocol.EventRecordRequest
	eventOp       *protocol.EventOpRequest
	eventElapsed  *protocol.EventElapsedRequest
	setDevice     *protocol.SetDeviceRequest
	memset        *protocol.MemsetRequest
	d2d           *protocol.MemcpyD2DRequest
	batch         *protocol.BatchRequest
}

var _ cudart.Runtime = (*Client)(nil)

// hostLander lands the data of a MemcpyToHostResponse in the application's
// destination buffer.
type hostLander struct{ dst []byte }

// Land implements transport.Lander: the reply to a device-to-host copy of
// len(dst) bytes is that data followed by the 4-byte result code, and
// nothing else is that long. An error reply is 4 bytes and never offered.
func (h *hostLander) Land(frameLen int, _ []byte) (head int, dst []byte) {
	if frameLen != len(h.dst)+4 {
		return 0, nil
	}
	return 0, h.dst
}

// Observer receives a notification for every remote call a client makes.
// Package trace implements it to reproduce the paper's Figure 2.
type Observer interface {
	// Call reports one completed remote call with its Table I payload
	// sizes.
	Call(op protocol.Op, sentBytes, recvBytes int)
}

// ClientOption configures Open.
type ClientOption func(*Client)

// WithObserver attaches a call observer.
func WithObserver(o Observer) ClientOption {
	return func(c *Client) { c.observer = o }
}

// WithSchedClass declares the session's scheduling class and weight
// (SchedRealtime, SchedBatch, SchedBestEffort; weight 0 reads as 1) to a
// daemon running the multi-tenant scheduler. The declaration rides the
// session hello, so Open sends one even without WithReconnect — which
// also makes the session durable, a strict upgrade. Servers without the
// scheduler accept and ignore the extended hello.
func WithSchedClass(class, weight uint32) ClientOption {
	return func(c *Client) {
		c.schedClass = class
		c.schedWeight = weight
	}
}

// DefaultChunkThreshold is the transfer size at which WithChunkedTransfers
// switches to the chunked protocol when no explicit threshold is given:
// four default-size chunks, below which the extra round trip of the
// Begin acknowledgement outweighs the overlap.
const DefaultChunkThreshold = 4 * protocol.DefaultChunkSize

// WithChunkedTransfers opts in to the pipelined chunked-memcpy protocol
// for transfers of at least threshold bytes, split into chunkSize-byte
// chunks; the server overlaps each chunk's PCIe push with the next chunk's
// network transfer. threshold <= 0 selects DefaultChunkThreshold and
// chunkSize <= 0 selects protocol.DefaultChunkSize. Without this option
// every transfer uses the classic single-frame messages, whose byte
// accounting matches Table I of the paper.
func WithChunkedTransfers(threshold, chunkSize int) ClientOption {
	return func(c *Client) {
		if threshold <= 0 {
			threshold = DefaultChunkThreshold
		}
		if chunkSize <= 0 {
			chunkSize = protocol.DefaultChunkSize
		}
		c.chunkThreshold = threshold
		c.chunkSize = uint32(chunkSize)
	}
}

// Open establishes a session: it connects the client side of the middleware
// over an existing transport connection and performs the initialization
// exchange, locating and sending the application's GPU module.
func Open(conn transport.Conn, module []byte, opts ...ClientOption) (*Client, error) {
	c := &Client{conn: conn, curDev: cacheCurrentDevice}
	for _, o := range opts {
		o(c)
	}
	req := &protocol.InitRequest{Module: module}
	if err := conn.Send(req); err != nil {
		return nil, fmt.Errorf("rcuda: init send: %w", err)
	}
	payload, err := conn.Recv()
	if err != nil {
		return nil, fmt.Errorf("rcuda: init recv: %w", err)
	}
	resp, err := protocol.DecodeInitResponse(payload)
	if err != nil {
		return nil, fmt.Errorf("rcuda: init decode: %w", err)
	}
	c.observe(protocol.OpInit, req.WireSize(), resp.WireSize())
	if resp.Err == protocol.CodeServerBusy {
		return nil, fmt.Errorf("rcuda: server refused admission: %w", ErrServerBusy)
	}
	if err := cudart.Error(resp.Err).AsError(); err != nil {
		return nil, fmt.Errorf("rcuda: server rejected initialization: %w", err)
	}
	c.capMajor, c.capMinor = resp.CapabilityMajor, resp.CapabilityMinor
	if c.dial != nil || c.schedClass != 0 || c.schedWeight != 0 {
		if err := c.helloDurable(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// helloDurable upgrades the freshly initialized session to a durable one
// so a later reconnect can reattach to it. It runs on the still-healthy
// initial connection and is not itself retried.
func (c *Client) helloDurable() error {
	hello := &protocol.SessionHelloRequest{Class: c.schedClass, Weight: c.schedWeight}
	if err := c.conn.Send(hello); err != nil {
		return fmt.Errorf("rcuda: session hello send: %w", err)
	}
	payload, err := c.conn.Recv()
	if err != nil {
		return fmt.Errorf("rcuda: session hello recv: %w", err)
	}
	resp, err := protocol.DecodeSessionHelloResponse(payload)
	if err != nil {
		return fmt.Errorf("rcuda: session hello decode: %w", err)
	}
	c.observe(protocol.OpSessionHello, hello.WireSize(), len(payload))
	if refuse := cudart.Error(resp.Err).AsError(); refuse != nil {
		return fmt.Errorf("rcuda: server refused durable session: %w", refuse)
	}
	c.sessionID = resp.Session
	c.durable = true
	return nil
}

func (c *Client) observe(op protocol.Op, sent, recv int) {
	if c.observer != nil {
		c.observer.Call(op, sent, recv)
	}
}

// roundTrip sends a request and returns the raw response payload.
func (c *Client) roundTrip(req protocol.Request) ([]byte, error) {
	payload, _, err := c.exchange(req, nil)
	return payload, err
}

// exchange sends a request and returns the raw response: the payload and,
// when l landed the response's bulk bytes, the memory they are in. The
// exchange runs under the retry policy: a connection fault mid-exchange
// re-runs the whole request on a replacement connection when the
// operation is idempotent — a landing the fault cut short is landed again
// from the start.
func (c *Client) exchange(req protocol.Request, l transport.Lander) (payload, landed []byte, err error) {
	if c.closed.Load() {
		return nil, nil, cudart.ErrorInitialization
	}
	// Every synchronous exchange is a sync point for the batching layer:
	// pending coalesced work must reach the server first so the wire keeps
	// the program's call order, and a deferred batched-call failure surfaces
	// here instead of the exchange running.
	if err := c.syncPoint(); err != nil {
		return nil, nil, err
	}
	err = c.runRetry(req.Op(), func() error {
		if err := c.conn.Send(req); err != nil {
			return fmt.Errorf("rcuda: %v send: %w", req.Op(), err)
		}
		p, ld, _, err := transport.RecvLanding(c.conn, l)
		if err != nil {
			return fmt.Errorf("rcuda: %v recv: %w", req.Op(), err)
		}
		payload, landed = p, ld
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	c.observe(req.Op(), req.WireSize(), len(payload)+len(landed))
	return payload, landed, nil
}

// callCode runs one exchange whose reply is the bare result code. With
// batching on, an operation the op table marks batchable is coalesced
// instead: it returns nil now and its server-side error surfaces at the
// next sync point. A sync point that would flush pending work first closes
// the pending frame instead, answered by the frame's reply (flushBatch).
func (c *Client) callCode(req protocol.Request) error {
	if c.batching {
		if protocol.BatchableOp(req.Op()) {
			return c.enqueue(req)
		}
		if c.folds(req.Op()) {
			return c.flushBatch(req)
		}
	}
	payload, err := c.roundTrip(req)
	if err != nil {
		return err
	}
	code, err := protocol.DecodeCodeResponse(payload)
	if err != nil {
		return err
	}
	return cudart.Error(code).AsError()
}

// Malloc implements cudart.Runtime.
func (c *Client) Malloc(size uint32) (cudart.DevicePtr, error) {
	payload, err := c.roundTrip(protocol.Put(&c.req.malloc, protocol.MallocRequest{Size: size}))
	if err != nil {
		return 0, err
	}
	resp, err := protocol.DecodeMallocResponse(payload)
	if err != nil {
		return 0, err
	}
	if err := cudart.Error(resp.Err).AsError(); err != nil {
		return 0, err
	}
	return cudart.DevicePtr(resp.DevPtr), nil
}

// Free implements cudart.Runtime.
func (c *Client) Free(ptr cudart.DevicePtr) error {
	return c.callCode(protocol.Put(&c.req.free, protocol.FreeRequest{DevPtr: uint32(ptr)}))
}

// MemcpyToDevice implements cudart.Runtime.
func (c *Client) MemcpyToDevice(dst cudart.DevicePtr, src []byte) error {
	if c.chunkThreshold > 0 && len(src) >= c.chunkThreshold {
		// The chunked path bypasses roundTrip, so it takes its sync point
		// here before the transfer starts.
		if err := c.syncPoint(); err != nil {
			return err
		}
		// Retry restarts the whole transfer from Begin: the server-side
		// rewrite of the same bytes to the same region is idempotent.
		return c.runRetry(protocol.OpMemcpyToDevice, func() error {
			return c.memcpyToDeviceChunked(dst, src)
		})
	}
	req := protocol.Put(&c.req.toDevice, protocol.MemcpyToDeviceRequest{Dst: uint32(dst), Data: src})
	err := c.callCode(req)
	req.Data = nil
	return err
}

// MemcpyToHost implements cudart.Runtime. The response's data is read from
// the connection straight into dst where the transport can land it, and
// decoded into dst otherwise; either way the call allocates nothing for
// the data itself.
func (c *Client) MemcpyToHost(dst []byte, src cudart.DevicePtr) error {
	if c.chunkThreshold > 0 && len(dst) >= c.chunkThreshold {
		if err := c.syncPoint(); err != nil {
			return err
		}
		return c.runRetry(protocol.OpMemcpyToHost, func() error {
			return c.memcpyToHostChunked(dst, src)
		})
	}
	return c.copyToHost(protocol.Put(&c.req.toHost,
		protocol.MemcpyToHostRequest{Src: uint32(src), Size: uint32(len(dst))}), dst)
}

// copyToHost runs a device-to-host exchange, synchronous or on a stream:
// either reply is dst's data followed by the result code.
func (c *Client) copyToHost(req protocol.Request, dst []byte) error {
	c.toHost.dst = dst
	payload, landed, err := c.exchange(req, &c.toHost)
	c.toHost.dst = nil
	if err != nil {
		return err
	}
	// What the transport landed is in dst already; the payload holds the
	// rest of the response.
	errCode, err := protocol.DecodeMemcpyToHostResponseInto(payload, dst[len(landed):])
	if cudaErr := cudart.Error(errCode).AsError(); cudaErr != nil {
		return cudaErr
	}
	return err
}

// Launch implements cudart.Runtime. cudaLaunch is asynchronous by
// definition, so with batching enabled it coalesces instead of paying a
// round trip; its server-side error surfaces at the next sync point.
func (c *Client) Launch(name string, grid, block cudart.Dim3, shared uint32, params []byte) error {
	return c.LaunchAsync(name, grid, block, shared, params, 0)
}

// DeviceSynchronize implements cudart.Runtime.
func (c *Client) DeviceSynchronize() error { return c.callCode(&protocol.SyncRequest{}) }

// Capability implements cudart.Runtime, returning the compute capability
// received during initialization.
func (c *Client) Capability() (major, minor uint32) { return c.capMajor, c.capMinor }

// Close implements cudart.Runtime: it sends the finalization message (the
// daemon quits servicing this execution and releases its resources),
// closes the transport, and detaches the observer. It is idempotent; see
// the Client contract for post-Close behavior.
func (c *Client) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	// A broken durable session is revived just long enough to deliver the
	// finalization, so the server releases it instead of parking it until
	// daemon shutdown. Best-effort: an unreachable server leaves the
	// parked session to the daemon's own cleanup.
	if c.connBroken && !c.lost {
		if err := c.reconnect(); err != nil {
			c.lost = true
		}
	}
	// Close is the final sync point: pending batched work is flushed so its
	// effects land before finalization, and a deferred batched-call failure
	// gets its last chance to reach the application.
	var flushErr error
	if c.batching && !c.lost {
		flushErr = c.syncPoint()
	}
	req := &protocol.FinalizeRequest{}
	sendErr := c.conn.Send(req)
	if sendErr == nil {
		c.observe(protocol.OpFinalize, req.WireSize(), 0)
	}
	c.observer = nil
	closeErr := c.conn.Close()
	if flushErr != nil {
		return flushErr
	}
	if sendErr != nil {
		return sendErr
	}
	return closeErr
}
