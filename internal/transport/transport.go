// Package transport carries rCUDA protocol messages between client and
// server. Two implementations exist:
//
//   - TCP: real sockets via net, with Nagle's algorithm disabled exactly as
//     the paper does ("we disabled the TCP-layer congestion control
//     algorithm ... to avoid unnecessary delays introduced by ... Nagle's
//     algorithm"). Used by the rcudad daemon and the integration tests.
//
//   - Pipe: an in-process connection whose sends advance a simulation clock
//     by the modeled wire time of the chosen interconnect, turning a full
//     client/server execution into a deterministic discrete-event run over
//     any of the paper's seven networks.
//
// Both carry the length-prefixed frames of package protocol; the simulated
// wire charges only the Table I payload bytes (framing overhead is part of
// the measured latency curves the link models reproduce).
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"rcuda/internal/netsim"
	"rcuda/internal/protocol"
	"rcuda/internal/stats"
	"rcuda/internal/vclock"
)

// Conn is a reliable, message-oriented duplex connection.
type Conn interface {
	// Send transmits one protocol message.
	Send(m protocol.Message) error
	// Recv blocks for the next incoming message payload. It returns
	// io.EOF after the peer closes. The returned slice may reuse pooled
	// storage and is only valid until the next Recv on this connection;
	// callers that keep payload bytes longer must copy them out.
	Recv() ([]byte, error)
	// Close releases the connection. Safe to call more than once.
	Close() error
	// Stats reports cumulative traffic counters.
	Stats() Stats
}

// TimedReceiver is implemented by connections that can report when each
// message arrived on the connection's clock. RecvLanding reads the arrival
// instant through it on a connection without a landing receive, such as a
// wrapper that forwards only this; the server books a chunked copy's PCIe
// pushes at those instants.
type TimedReceiver interface {
	// RecvTimed is Recv plus the message's arrival instant.
	RecvTimed() ([]byte, time.Duration, error)
}

// DeadlineCapable is implemented by connections whose individual Send and
// Recv operations can be bounded in time. The rCUDA server's request
// watchdog arms this so a peer that stalls mid-frame surfaces as
// os.ErrDeadlineExceeded instead of pinning a handler goroutine forever.
type DeadlineCapable interface {
	// SetOpTimeout bounds every subsequent Send and Recv individually;
	// zero disables the bound.
	SetOpTimeout(d time.Duration)
}

// ScheduledSender is implemented by connections that can hold a message
// until an instant on the connection's clock. The middleware does not send
// through it: the server paces a chunked copy to the host with its clock's
// AdvanceTo, which holds on every connection. PipeEnd implements it for the
// connection wrappers that forward it.
type ScheduledSender interface {
	// SendAt advances the connection's clock to notBefore (never backwards)
	// and then sends as usual.
	SendAt(m protocol.Message, notBefore time.Duration) error
}

// Lander is offered caller-owned memory for the bulk bytes of a frame that
// is still arriving, so they are read from the connection straight into
// their destination — device memory on the server, the application's
// buffer on the client — instead of into a pooled frame buffer.
type Lander interface {
	// Land sees the length of the arriving frame and its first LandPeek
	// bytes. It returns how many leading bytes are the frame's fixed-size
	// head and the memory that takes the bytes following it; the receive
	// then returns the head and whatever trails the landed bytes as the
	// payload. A nil dst declines, and the frame is received whole. Land
	// must validate everything it needs from peek before it hands memory
	// out: that memory is written as the bytes arrive, and keeps what
	// arrived if the connection fails mid-frame.
	Land(frameLen int, peek []byte) (head int, dst []byte)
}

// LandPeek is how much of a frame a Lander sees before deciding: the
// longest fixed-size head of any bulk message (cudaMemcpy to device).
const LandPeek = 20

// LandFloor is the smallest frame a Lander is consulted for. Below it a
// frame fits the socket read buffer, where a second copy costs less than
// the question.
const LandFloor = 64 << 10

// NoArrival is the arrival instant RecvLanding reports on a connection that
// does not stamp arrivals.
const NoArrival time.Duration = -1

// LandingReceiver is implemented by connections whose receive can land a
// frame's bulk bytes. Recv (and RecvTimed) are this receive offered no
// memory.
type LandingReceiver interface {
	// RecvLanding is Recv with l consulted for every frame of at least
	// LandFloor bytes; a nil l is never consulted. landed is the memory l
	// handed out, now holding the frame's bulk bytes, or nil when the frame
	// was received whole. at is the arrival instant of a TimedReceiver's
	// RecvTimed, NoArrival on other connections. Landed bytes count as
	// received in Stats.
	RecvLanding(l Lander) (payload, landed []byte, at time.Duration, err error)
}

// RecvLanding receives the next message from any connection: through its
// landing receive when it has one, and whole otherwise — a wrapper that
// forwards only Conn still works, with nothing landed.
func RecvLanding(c Conn, l Lander) (payload, landed []byte, at time.Duration, err error) {
	switch r := c.(type) {
	case LandingReceiver:
		return r.RecvLanding(l)
	case TimedReceiver:
		payload, at, err = r.RecvTimed()
		return payload, nil, at, err
	default:
		payload, err = c.Recv()
		return payload, nil, NoArrival, err
	}
}

// offered reports whether a frame of n bytes is put to l at all.
func offered(l Lander, n int) bool { return l != nil && n >= LandFloor }

// land asks l where the bulk bytes of a frame of n bytes go. It reports no
// landing (0, nil) when l declines or answers with a range that does not
// fit the frame.
func land(l Lander, n int, peek []byte) (head int, dst []byte) {
	head, dst = l.Land(n, peek)
	if len(dst) == 0 || head < 0 || head > len(peek) || len(dst) > n-head {
		return 0, nil
	}
	return head, dst
}

// PairSender is implemented by connections that can give two frames to
// the wire in one write. A client sends its session hello right behind its
// init this way: the hello does not wait a round trip for the init's reply,
// and a server that refuses the init has both frames in its reader before
// it closes.
type PairSender interface {
	// SendPair transmits first and then next in one write; an error leaves
	// it unknown how much of either got out.
	SendPair(first, next protocol.Message) error
}

// SendPair sends first and then next on any connection: in one write
// through its PairSender when it has one, and as two Sends otherwise — a
// wrapper that forwards only Conn still works. sent is how many of the two
// frames are known to have gone out whole, so a caller whose next frame
// failed can still read the reply to the first.
func SendPair(c Conn, first, next protocol.Message) (sent int, err error) {
	if p, ok := c.(PairSender); ok {
		if err := p.SendPair(first, next); err != nil {
			return 0, err
		}
		return 2, nil
	}
	if err := c.Send(first); err != nil {
		return 0, err
	}
	if err := c.Send(next); err != nil {
		return 1, err
	}
	return 2, nil
}

// SendStamper is implemented by connections that record when each message
// left on the connection's clock. On a simulated pipe that clock is shared
// with the peer, which may start charging its next message the moment it
// has received this one; the departure stamp is the last reading of the
// clock that is the sender's alone, so the server ends a request's busy
// interval there rather than at a clock read that races the client.
type SendStamper interface {
	// LastSendOn returns the instant on clock c at which the most recent
	// Send put its message on the wire. ok is false when c is not the
	// connection's clock or nothing has been sent yet.
	LastSendOn(c vclock.Clock) (at time.Duration, ok bool)
}

// Counts declares a connection's traffic counters once: Stats is its
// snapshot and every implementation adds to a Counts[atomic.Int64].
type Counts[T any] struct {
	MessagesSent T
	MessagesRecv T
	BytesSent    T
	BytesRecv    T
	// PoolHits and PoolMisses count frame-buffer requests served from the
	// pool versus freshly allocated (sends and receives combined).
	PoolHits   T
	PoolMisses T
	// PoolBulk counts those requests that were for at least LandFloor
	// bytes: the staging buffers of bulk payloads that did not land.
	PoolBulk T
	// FaultsInjected counts deliberate faults a FaultyConn applied to this
	// connection; always zero on a plain connection.
	FaultsInjected T
}

// Stats counts a connection's traffic in Table I payload bytes, plus the
// frame-buffer pool's effectiveness on this connection.
type Stats = Counts[int64]

// counters is embedded by implementations.
type counters struct{ count Counts[atomic.Int64] }

func (c *counters) onSend(n int) {
	c.count.MessagesSent.Add(1)
	c.count.BytesSent.Add(int64(n))
}

func (c *counters) onRecv(n int) {
	c.count.MessagesRecv.Add(1)
	c.count.BytesRecv.Add(int64(n))
}

// getBuffer is GetBuffer with the request counted on this connection.
func (c *counters) getBuffer(n int) []byte {
	buf, hit := GetBuffer(n)
	if hit {
		c.count.PoolHits.Add(1)
	} else {
		c.count.PoolMisses.Add(1)
	}
	if n >= LandFloor {
		c.count.PoolBulk.Add(1)
	}
	return buf
}

func (c *counters) Stats() Stats { return stats.Load[Stats](&c.count) }

// ErrTruncatedFrame reports a frame that ended mid-flight: the peer (or an
// injected fault) tore the connection down after the length prefix promised
// more bytes than ever arrived. It wraps io.ErrUnexpectedEOF, so existing
// errors.Is checks against that sentinel keep working, while retry logic
// can classify the loss precisely.
var ErrTruncatedFrame = fmt.Errorf("transport: truncated frame: %w", io.ErrUnexpectedEOF)

// isStreamEnd reports an EOF-like read failure (the only errors ReadFull
// and Peek can return when the stream simply stops short).
func isStreamEnd(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// --- TCP ---------------------------------------------------------------------

// TCPConn is a Conn over a real socket. Like the protocol it carries, it
// is half-duplex per direction: one goroutine sending and one receiving.
type TCPConn struct {
	counters
	c         net.Conn
	br        *bufio.Reader // pooled; see recvState for who may touch it
	recvState atomic.Int32  // recvActive | recvClosed
	opTimeout atomic.Int64  // nanoseconds; 0 disables deadlines
	// readArmed and writeArmed record a deadline the direction's last
	// operation set, each touched only by that direction's goroutine.
	readArmed, writeArmed bool

	fw       protocol.FrameWriter // send-side framing state, reused across Sends
	lastRecv []byte               // previous Recv's pooled payload buffer; see recvBuffer
	small    [smallRecv]byte      // payload of a small frame; see frameBuffer
}

var (
	_ Conn            = (*TCPConn)(nil)
	_ DeadlineCapable = (*TCPConn)(nil)
	_ LandingReceiver = (*TCPConn)(nil)
	_ PairSender      = (*TCPConn)(nil)
)

// DialTCP connects to an rCUDA server, disabling Nagle's algorithm. A
// literal ip:port is dialed without a trip through the resolver.
func DialTCP(addr string) (*TCPConn, error) {
	var c net.Conn
	var err error
	if ap, perr := netip.ParseAddrPort(addr); perr == nil {
		var tc *net.TCPConn
		if tc, err = net.DialTCP("tcp", nil, net.TCPAddrFromAddrPort(ap)); err == nil {
			c = tc
		}
	} else {
		c, err = net.Dial("tcp", addr)
	}
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return NewTCPConn(c), nil
}

// NewTCPConn wraps an established socket (e.g. one accepted by the server
// daemon), disabling Nagle's algorithm when the socket is TCP.
func NewTCPConn(c net.Conn) *TCPConn {
	if tc, ok := c.(*net.TCPConn); ok {
		// Explicitly control the instant a frame is sent out, as the
		// paper's middleware does. (This is also Go's default, but the
		// middleware must not depend on it.)
		_ = tc.SetNoDelay(true)
	}
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(c)
	return &TCPConn{c: c, br: br}
}

// readerPool holds the LandFloor-sized socket readers of closed connections.
// A reader belongs to its connection's receiving goroutine and goes back
// exactly once: recvState's two bits decide whether Close returns it (no
// receive in flight) or the receive that Close interrupted does, on its way
// out. Nothing reads t.br after that.
var readerPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, LandFloor) }}

const (
	recvActive int32 = 1 << iota // a RecvLanding is between its two atomic updates
	recvClosed                   // Close has run
)

// releaseReader hands the reader back, holding neither the dead socket nor
// any byte of it.
func (t *TCPConn) releaseReader() {
	t.br.Reset(nil)
	readerPool.Put(t.br)
	t.br = nil
}

// SetOpTimeout bounds every subsequent Send and Recv individually; a hung
// peer then surfaces as a deadline error instead of blocking the
// application forever. Zero (the default) disables deadlines: the next
// operation of each direction clears the deadline the last one set, once.
// Safe to call concurrently with in-flight operations; it affects
// operations started afterwards.
func (t *TCPConn) SetOpTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	t.opTimeout.Store(int64(d))
}

// armRead and armWrite set their direction's per-op deadline while a
// timeout is set. With none set they call no setter — each call takes the
// poller's lock — except once after SetOpTimeout(0), to clear the deadline
// the direction's last operation set.
func (t *TCPConn) armRead() error {
	if d, ok := t.deadline(&t.readArmed); ok {
		return t.c.SetReadDeadline(d)
	}
	return nil
}

func (t *TCPConn) armWrite() error {
	if d, ok := t.deadline(&t.writeArmed); ok {
		return t.c.SetWriteDeadline(d)
	}
	return nil
}

// deadline returns the deadline the next operation of the direction whose
// record armed is must set, false when it must set none.
func (t *TCPConn) deadline(armed *bool) (time.Time, bool) {
	d := time.Duration(t.opTimeout.Load())
	if d == 0 {
		set := *armed
		*armed = false
		return time.Time{}, set
	}
	*armed = true
	return time.Now().Add(d), true
}

// Send implements Conn. Segmented messages (bulk memcpy payloads) are
// gathered with a single vectored write — the payload bytes go from the
// caller's slice to the socket without an intermediate copy; everything
// else is framed into a reused scratch buffer.
func (t *TCPConn) Send(m protocol.Message) error {
	if err := t.armWrite(); err != nil {
		return err
	}
	if err := t.fw.WriteFrame(t.c, m); err != nil {
		return err
	}
	t.onSend(m.WireSize())
	return nil
}

// SendPair implements PairSender: both frames leave in the single (vectored)
// write Send makes for first alone.
func (t *TCPConn) SendPair(first, next protocol.Message) error {
	if err := t.armWrite(); err != nil {
		return err
	}
	if err := t.fw.WriteFrames(t.c, first, next); err != nil {
		return err
	}
	t.onSend(first.WireSize())
	t.onSend(next.WireSize())
	return nil
}

// Recv implements Conn. The payload is read into a buffer the next Recv
// reuses or recycles (see recvBuffer) — see the Conn contract.
func (t *TCPConn) Recv() ([]byte, error) {
	payload, _, _, err := t.RecvLanding(nil)
	return payload, err
}

// RecvLanding implements LandingReceiver: the landed bytes go from the
// socket (past whatever bufio already holds of them) into the Lander's
// memory, and only head and tail occupy the receive buffer.
func (t *TCPConn) RecvLanding(l Lander) (payload, landed []byte, at time.Duration, err error) {
	if t.recvState.Add(recvActive)&recvClosed != 0 {
		// Started after Close: the reader is gone. The socket says why.
		t.recvState.Add(-recvActive)
		if err = t.armRead(); err == nil {
			err = net.ErrClosed
		}
		return nil, nil, NoArrival, err
	}
	payload, landed, err = t.recvFrame(l)
	if t.recvState.Add(-recvActive)&recvClosed != 0 {
		t.releaseReader() // Close came while this receive held the reader
	}
	return payload, landed, NoArrival, err
}

// keepRecv bounds the receive buffer a connection keeps for its next
// frame: everything a small call sends fits (a batch frame is capped at
// 16 KiB by default), and a connection that once received a bigger frame —
// the init frame's module image, a staged bulk copy — does not hold it for
// the rest of its life.
const keepRecv = LandFloor / 4

// recvBuffer returns a buffer of length n for the next received frame,
// taking *last, the previous receive's buffer. That buffer is valid only
// until this receive, so when the frame fits and the buffer is small it is
// simply reused: a connection in steady state then never touches the pool,
// whose contents every GC cycle drops. Otherwise it goes back to the pool
// and the frame gets a pooled buffer.
func (c *counters) recvBuffer(last *[]byte, n int) []byte {
	prev := *last
	*last = nil
	if n <= cap(prev) && cap(prev) <= keepRecv {
		return prev[:n]
	}
	PutBuffer(prev)
	return c.getBuffer(n)[:n]
}

// smallRecv bounds the frames a TCPConn receives into storage of its own
// while it keeps no pooled buffer: every frame but the init of a session
// that opens, allocates, frees and closes fits, on either end. A
// connection's last pooled buffer never goes back (see Close), so without
// its own storage every connection would take one from the pool for good —
// one allocation per connection end.
const smallRecv = 32

// frameBuffer returns the buffer for the next frame's n payload bytes and
// whether it is the connection's own, which never goes to the pool. A small
// frame goes there unless the kept buffer can take it; any other frame
// takes recvBuffer's.
func (t *TCPConn) frameBuffer(n int) (buf []byte, own bool) {
	if n <= smallRecv && (t.lastRecv == nil || cap(t.lastRecv) > keepRecv) {
		PutBuffer(t.lastRecv)
		t.lastRecv = nil
		return t.small[:n], true
	}
	return t.recvBuffer(&t.lastRecv, n), false
}

// recvFrame is one receive on a reader this goroutine holds.
func (t *TCPConn) recvFrame(l Lander) (payload, landed []byte, err error) {
	if err := t.armRead(); err != nil {
		return nil, nil, err
	}
	// Peek the header through bufio instead of reading it into a local
	// array through the io.Reader interface, which would make the array
	// escape: one allocation per message.
	hdr, err := t.br.Peek(protocol.FrameHeaderSize)
	if err != nil {
		// A clean close lands exactly between frames and surfaces as io.EOF
		// with nothing buffered; a close inside the header is a truncation.
		if got := t.br.Buffered(); got > 0 && isStreamEnd(err) {
			return nil, nil, fmt.Errorf("%w: %d of %d header bytes", ErrTruncatedFrame, got, protocol.FrameHeaderSize)
		}
		return nil, nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr))
	if n > protocol.MaxFrameSize {
		return nil, nil, fmt.Errorf("transport: frame of %d bytes exceeds limit %d", n, protocol.MaxFrameSize)
	}
	if _, err := t.br.Discard(protocol.FrameHeaderSize); err != nil {
		return nil, nil, err
	}
	var head int
	if offered(l, n) {
		// A stream that ends inside the peek is left to the reads below,
		// which report it as the truncation it is.
		if peek, err := t.br.Peek(LandPeek); err == nil {
			head, landed = land(l, n, peek)
		}
	}
	buf, own := t.frameBuffer(n - len(landed))
	// Head, landed bytes, tail: three reads of one frame, the first two
	// empty for a frame that did not land.
	var got int
	for _, part := range [...][]byte{buf[:head], landed, buf[head:]} {
		var m int
		m, err = io.ReadFull(t.br, part)
		got += m
		if err != nil {
			break
		}
	}
	if err != nil {
		if !own {
			PutBuffer(buf)
		}
		if isStreamEnd(err) {
			return nil, nil, fmt.Errorf("%w: %d of %d payload bytes", ErrTruncatedFrame, got, n)
		}
		return nil, nil, err
	}
	if !own {
		t.lastRecv = buf
	}
	t.onRecv(n)
	return buf, landed, nil
}

// Close implements Conn. The last receive's pooled payload is not recycled
// here: Close may come from another goroutine (a watchdog, a server
// shutdown) while the receiver is still decoding it.
func (t *TCPConn) Close() error {
	err := t.c.Close()
	for s := t.recvState.Load(); s&recvClosed == 0; s = t.recvState.Load() {
		if t.recvState.CompareAndSwap(s, s|recvClosed) {
			if s&recvActive == 0 {
				t.releaseReader()
			}
			break
		}
	}
	return err
}

// encodeFrame renders the full length-prefixed frame of m into a fresh
// buffer; the fault paths below need the raw bytes to cut or split.
func encodeFrame(m protocol.Message) ([]byte, error) {
	buf := make([]byte, protocol.FrameHeaderSize, protocol.FrameHeaderSize+m.WireSize())
	binary.LittleEndian.PutUint32(buf, uint32(m.WireSize()))
	buf = m.Encode(buf)
	if len(buf) != protocol.FrameHeaderSize+m.WireSize() {
		return nil, fmt.Errorf("transport: %T encoded %d bytes, declared %d",
			m, len(buf)-protocol.FrameHeaderSize, m.WireSize())
	}
	return buf, nil
}

// sendTruncated implements truncatedSender: it emits the frame header plus
// only the first keep payload bytes, then tears the connection down, so
// the peer observes a mid-frame truncation.
func (t *TCPConn) sendTruncated(m protocol.Message, keep int) error {
	buf, err := encodeFrame(m)
	if err != nil {
		return err
	}
	if err := t.armWrite(); err != nil {
		return err
	}
	if keep < 0 {
		keep = 0
	}
	if keep > m.WireSize()-1 {
		keep = m.WireSize() - 1
	}
	_, werr := t.c.Write(buf[:protocol.FrameHeaderSize+keep])
	cerr := t.c.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// sendSplit implements splitSender: the frame goes out whole but across
// two raw writes split at firstN frame bytes, exercising the peer's
// mid-frame reassembly without corrupting anything.
func (t *TCPConn) sendSplit(m protocol.Message, firstN int) error {
	buf, err := encodeFrame(m)
	if err != nil {
		return err
	}
	if err := t.armWrite(); err != nil {
		return err
	}
	if firstN <= 0 || firstN >= len(buf) {
		firstN = len(buf) / 2
	}
	if _, err := t.c.Write(buf[:firstN]); err != nil {
		return err
	}
	if _, err := t.c.Write(buf[firstN:]); err != nil {
		return err
	}
	t.onSend(m.WireSize())
	return nil
}

// --- Simulated pipe -----------------------------------------------------------

// ErrClosed is returned by operations on a closed simulated connection.
var ErrClosed = errors.New("transport: connection closed")

// pipeBuffer bounds in-flight messages per direction. The protocol is
// strictly request/response, so a send never waits for room in it. What a
// bulk send does wait for is the receiver: it returns once the peer's
// receive has copied the bytes out of the caller's slice (see pipeMsg).
const pipeBuffer = 16

// pipeMsg is one in-flight message plus the clock instant its network
// transfer completed. The arrival stamp is recorded by the sender — the
// client races ahead of the server when streaming chunks, so reading the
// clock at receive time would observe a later (and scheduling-dependent)
// instant.
//
// A small frame travels encoded in payload, a pooled buffer that becomes
// the receiver's. A bulk frame travels by reference: payload holds only its
// head and tail, in the sending end's sendHead, and bulk is the sender's own
// slice, which the receiver copies straight to where the bytes belong while
// the sender waits.
type pipeMsg struct {
	payload []byte
	bulk    []byte // nil unless the frame travels by reference
	head    int    // how many bytes of payload precede bulk
	ticket  uint64 // the sending end's hand word while this frame is queued
	at      time.Duration
}

// Hand-over of a by-reference frame, in the sending end's hand word. While
// the frame is queued the word equals the frame's ticket, a multiple of four
// that no earlier frame had. Exactly one compare-and-swap moves it on — the
// receiver's to ticket|handTaken as it dequeues the frame, or the sender's to
// ticket|handAbandoned as it gives up — and the one that fails tells its
// caller that the other side has the bulk bytes.
const (
	handTaken     uint64 = 1 // the receiver is copying them out, or has
	handAbandoned uint64 = 2 // the sender gave up first; the frame is dropped unread
)

// settle moves the frame holding ticket out of the queued state and reports
// whether this call was the one that did.
func (p *PipeEnd) settle(ticket, to uint64) bool {
	return p.hand.CompareAndSwap(ticket, ticket|to)
}

// copyOut fills dst with the frame's bytes from offset off on, the frame
// being payload[:head], bulk and payload[head:] laid end to end.
func (m *pipeMsg) copyOut(dst []byte, off int) {
	for _, part := range [...][]byte{m.payload[:m.head], m.bulk, m.payload[m.head:]} {
		if off < len(part) {
			dst = dst[copy(dst, part[off:]):]
			off = 0
		} else {
			off -= len(part)
		}
	}
}

// PipeEnd is one end of a simulated connection. Like TCPConn it is
// half-duplex per direction: one goroutine sending, one receiving.
type PipeEnd struct {
	counters
	link      *netsim.Link
	clock     vclock.Clock
	noise     *netsim.Noise
	out       chan pipeMsg
	in        chan pipeMsg
	done      chan struct{}
	closeOnce *sync.Once
	peer      *PipeEnd
	lastRecv  []byte         // previous Recv's payload buffer; see recvBuffer
	sendHead  []byte         // head and tail of the last by-reference Send
	peek      [LandPeek]byte // what a Lander sees of a by-reference frame
	opTimeout atomic.Int64   // nanoseconds; 0 disables deadlines
	sentAt    atomic.Int64   // departure stamp of the last Send; -1 before the first
	hand      atomic.Uint64  // hand-over state of the last by-reference Send
	copied    chan struct{}  // the peer's receive has copied that Send's bulk out
}

var (
	_ Conn            = (*PipeEnd)(nil)
	_ TimedReceiver   = (*PipeEnd)(nil)
	_ ScheduledSender = (*PipeEnd)(nil)
	_ SendStamper     = (*PipeEnd)(nil)
	_ DeadlineCapable = (*PipeEnd)(nil)
	_ LandingReceiver = (*PipeEnd)(nil)
)

// LastSendOn implements SendStamper.
func (p *PipeEnd) LastSendOn(c vclock.Clock) (time.Duration, bool) {
	at := p.sentAt.Load()
	return time.Duration(at), at >= 0 && c == p.clock
}

// SetOpTimeout implements DeadlineCapable. The simulated clock only
// advances while a peer is actively sending, so a stalled peer would block
// a Recv forever on any clock; the bound therefore runs on wall time — the
// frame of reference in which a hung goroutine actually hangs — while
// clean operations keep their deterministic simulated timing.
func (p *PipeEnd) SetOpTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.opTimeout.Store(int64(d))
}

func pipeDeadline(op string) error {
	return fmt.Errorf("transport: pipe %s: %w", op, os.ErrDeadlineExceeded)
}

// opDeadline returns a channel that fires when the configured per-op bound
// expires, plus the timer to stop; both are nil with deadlines disabled.
func (p *PipeEnd) opDeadline() (<-chan time.Time, *time.Timer) {
	d := time.Duration(p.opTimeout.Load())
	if d == 0 {
		return nil, nil
	}
	t := time.NewTimer(d)
	return t.C, t
}

// Pipe creates a connected pair of simulated connection ends over the given
// interconnect. Every Send advances the shared clock by the link's modeled
// wire time for the message's payload size (perturbed by noise, which may
// be nil), then delivers the payload to the peer.
func Pipe(link *netsim.Link, clock vclock.Clock, noise *netsim.Noise) (client, server *PipeEnd) {
	ab := make(chan pipeMsg, pipeBuffer)
	ba := make(chan pipeMsg, pipeBuffer)
	done := make(chan struct{})
	once := new(sync.Once)
	a := &PipeEnd{link: link, clock: clock, noise: noise, out: ab, in: ba, done: done, closeOnce: once}
	b := &PipeEnd{link: link, clock: clock, noise: noise, out: ba, in: ab, done: done, closeOnce: once}
	a.peer, b.peer = b, a
	a.copied, b.copied = make(chan struct{}, 1), make(chan struct{}, 1)
	a.sentAt.Store(-1)
	b.sentAt.Store(-1)
	return a, b
}

// Send implements Conn: it charges the modeled one-way wire latency on the
// shared clock and enqueues the frame at the peer, stamped with its arrival
// instant. Like a socket write, it returns with the caller's memory the
// caller's again: a bulk payload is not copied here but by the peer's
// receive, which Send waits for. That wait is also why a by-reference
// frame's head and tail can live in one buffer the end keeps for its next
// such Send, instead of in a pooled buffer every GC cycle would drop.
func (p *PipeEnd) Send(m protocol.Message) error {
	n := m.WireSize()
	var msg pipeMsg
	if seg, ok := m.(protocol.Segmented); ok && len(seg.SegmentBulk()) >= LandFloor {
		msg.bulk = seg.SegmentBulk()
		msg.payload = seg.SegmentHead(p.sendHead[:0])
		msg.head = len(msg.payload)
		msg.payload = seg.SegmentTail(msg.payload)
		p.sendHead = msg.payload
	} else {
		msg.payload = m.Encode(p.getBuffer(n))
	}
	if got := len(msg.payload) + len(msg.bulk); got != n {
		if msg.bulk == nil {
			PutBuffer(msg.payload)
		}
		return fmt.Errorf("transport: %T encoded %d bytes, declared %d", m, got, n)
	}
	return p.transmit(msg)
}

// transmit puts one frame on the simulated wire: the wire time of its full
// size charged on the clock, the departure stamped, the frame queued at the
// peer. A by-reference frame is then waited for until the receiver has
// copied it out. If the connection closes or the deadline passes first, the
// frame is abandoned — unless the receiver already holds it, in which case
// the copy, which is bounded, is waited out and the frame counts as sent. An
// error therefore means the peer never read the bulk bytes and never will.
// A buffered msg.payload goes back to the pool unless a receiver now owns it.
func (p *PipeEnd) transmit(msg pipeMsg) (err error) {
	defer func() {
		if err != nil && msg.bulk == nil {
			PutBuffer(msg.payload)
		}
	}()
	n := len(msg.payload) + len(msg.bulk)
	wire := p.link.WireTime(int64(n))
	if p.noise != nil {
		wire = p.noise.Perturb(wire)
	}
	select {
	case <-p.done:
		return ErrClosed
	default:
	}
	p.clock.Sleep(wire)
	expired, timer := p.opDeadline()
	if timer != nil {
		defer timer.Stop()
	}
	msg.at = p.clock.Now()
	p.sentAt.Store(int64(msg.at))
	if msg.bulk != nil {
		msg.ticket = (p.hand.Load() | 3) + 1
		p.hand.Store(msg.ticket)
	}
	select {
	case p.out <- msg:
	case <-p.done:
		return ErrClosed
	case <-expired:
		return pipeDeadline("send")
	}
	if msg.bulk != nil {
		select {
		case <-p.copied:
		case <-p.done:
			err = ErrClosed
		case <-expired:
			err = pipeDeadline("send")
		}
		if err != nil {
			if p.settle(msg.ticket, handAbandoned) {
				return err
			}
			<-p.copied
		}
	}
	p.onSend(n)
	return nil
}

// SendAt implements ScheduledSender: it first advances the clock to
// notBefore (a no-op if already past) and then sends as usual, so the
// message's wire transfer is modeled as starting no earlier than notBefore.
func (p *PipeEnd) SendAt(m protocol.Message, notBefore time.Duration) error {
	p.clock.AdvanceTo(notBefore)
	return p.Send(m)
}

// Recv implements Conn; see RecvLanding.
func (p *PipeEnd) Recv() ([]byte, error) {
	payload, _, _, err := p.RecvLanding(nil)
	return payload, err
}

// RecvTimed implements TimedReceiver; see RecvLanding.
func (p *PipeEnd) RecvTimed() ([]byte, time.Duration, error) {
	payload, _, at, err := p.RecvLanding(nil)
	return payload, at, err
}

// RecvLanding implements LandingReceiver. The payload occupies a buffer
// the next receive reuses or recycles — see the Conn contract. A frame
// that arrives by reference is copied out of the sender's memory here,
// once: its bulk bytes into the Lander's memory and the rest into a
// buffer from recvBuffer, or all of it into the buffer when nothing lands. A
// buffered frame is the receiver's already, and lands by copying its bulk
// bytes out of it.
func (p *PipeEnd) RecvLanding(l Lander) (payload, landed []byte, at time.Duration, err error) {
	expired, timer := p.opDeadline()
	if timer != nil {
		defer timer.Stop()
	}
	var msg pipeMsg
	for {
		select {
		case msg = <-p.in:
		case <-expired:
			return nil, nil, 0, pipeDeadline("recv")
		case <-p.done:
			// Drain anything that raced with Close so shutdown is orderly.
			select {
			case msg = <-p.in:
			default:
				return nil, nil, 0, errClosedEOF()
			}
		}
		if msg.bulk == nil || p.peer.settle(msg.ticket, handTaken) {
			break
		}
		// Abandoned: its sender has the bytes back. Dropped unread.
	}
	n := len(msg.payload) + len(msg.bulk)
	payload = msg.payload
	var head int
	if msg.bulk != nil {
		if offered(l, n) {
			msg.copyOut(p.peek[:], 0)
			head, landed = land(l, n, p.peek[:])
		}
		payload = p.recvBuffer(&p.lastRecv, n-len(landed))
		msg.copyOut(payload[:head], 0)
		msg.copyOut(landed, head)
		msg.copyOut(payload[head:], head+len(landed))
	} else {
		// The frame arrived in a buffer of its own; the kept one goes back.
		PutBuffer(p.lastRecv)
		if offered(l, n) {
			if head, landed = land(l, n, payload[:LandPeek]); landed != nil {
				bulkEnd := head + copy(landed, payload[head:])
				payload = payload[:head+copy(payload[head:], payload[bulkEnd:])]
			}
		}
	}
	p.lastRecv = payload
	p.onRecv(n)
	if msg.bulk != nil {
		p.peer.copied <- struct{}{}
	}
	return payload, landed, msg.at, nil
}

// errClosedEOF distinguishes orderly shutdown; callers treat it like EOF.
func errClosedEOF() error { return ErrClosed }

// sendTruncated implements truncatedSender for the simulated pipe. The
// pipe has no byte stream to cut mid-frame, so truncation delivers the
// first keep payload bytes as the message and then closes the connection:
// the peer decodes a short, malformed payload — the same observable
// outcome a torn frame has after reassembly.
func (p *PipeEnd) sendTruncated(m protocol.Message, keep int) error {
	payload := m.Encode(p.getBuffer(m.WireSize()))
	if keep > len(payload)-1 {
		keep = len(payload) - 1
	}
	if keep < 0 {
		keep = 0
	}
	err := p.transmit(pipeMsg{payload: payload[:keep]})
	_ = p.Close() // torn down whether or not the cut frame got out; never fails
	return err
}

// Close implements Conn. Closing either end terminates both directions.
func (p *PipeEnd) Close() error {
	p.closeOnce.Do(func() { close(p.done) })
	return nil
}
