// Package faults provides deterministic fault injection for the rCUDA
// data path. A Plan decides, one transport operation at a time, whether
// that operation proceeds cleanly or suffers an injected fault — a
// connection reset, a mid-frame truncation, a latency spike, a partial
// write, or a stall. Plans come in two flavors:
//
//   - Script: an explicit list of injections pinned to operation indices,
//     for tests that need a fault at an exact point in a dialogue
//     ("reset during the third chunk").
//
//   - Seeded: a pseudo-random plan driven entirely by a seed and per-kind
//     rates. The same seed always yields the same fault sequence, so any
//     chaos-test failure replays byte-identically from its seed.
//
// The plan itself never touches a connection; transport.FaultyConn asks it
// for a Decision before every Send and Recv and acts on the answer. Every
// non-clean decision is recorded in the plan's history, which tests use to
// assert determinism and to print a replayable fault trace on failure.
package faults

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Kind is the class of an injected fault.
type Kind uint8

// Fault kinds, ordered roughly by severity.
const (
	// KindNone means the operation proceeds cleanly.
	KindNone Kind = iota
	// KindLatency delays the operation by Decision.Delay, then lets it
	// proceed — a transient congestion spike.
	KindLatency
	// KindPartialWrite splits the frame across two raw writes. The byte
	// stream is intact, so the peer must reassemble transparently; the
	// fault exercises mid-frame read paths rather than failing anything.
	KindPartialWrite
	// KindStall simulates a peer going silent: the operation blocks for
	// Decision.Delay and then fails with a deadline error, as a hung
	// connection surfaces through an operation timeout.
	KindStall
	// KindTruncate cuts the frame short on the wire and tears the
	// connection down, so the peer observes a truncated frame and the
	// local side observes a reset.
	KindTruncate
	// KindReset tears the connection down before the operation, as an
	// abrupt peer death or RST would.
	KindReset

	kindCount
)

// String returns a short stable name for the kind.
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindLatency:
		return "latency"
	case KindPartialWrite:
		return "partial-write"
	case KindStall:
		return "stall"
	case KindTruncate:
		return "truncate"
	case KindReset:
		return "reset"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Dir is the transport direction a decision applies to.
type Dir uint8

// Directions. DirAny is only meaningful in scripted injections, where it
// matches whichever direction the pinned operation turns out to be.
const (
	DirAny Dir = iota
	DirSend
	DirRecv
)

// String returns a short stable name for the direction.
func (d Dir) String() string {
	switch d {
	case DirAny:
		return "any"
	case DirSend:
		return "send"
	case DirRecv:
		return "recv"
	default:
		return fmt.Sprintf("Dir(%d)", uint8(d))
	}
}

// Decision is the plan's verdict for one transport operation.
type Decision struct {
	Kind Kind
	// Delay applies to KindLatency and KindStall.
	Delay time.Duration
	// KeepBytes bounds how many payload bytes survive a KindTruncate or
	// land in the first write of a KindPartialWrite. Zero means "use
	// KeepFrac of the frame".
	KeepBytes int
	// KeepFrac is the fractional form of KeepBytes, used when KeepBytes
	// is zero; the connection resolves it against the frame size. Zero
	// means half the frame.
	KeepFrac float64
}

// Injection pins a decision to one operation of a scripted plan.
type Injection struct {
	// Op is the zero-based index of the operation the injection fires on,
	// counting every Send and Recv the plan is consulted for.
	Op int
	// Dir restricts the injection to one direction; DirAny matches both.
	Dir Dir
	Decision
}

// Event is one recorded injection: where it fired and what it did.
type Event struct {
	Op  int
	Dir Dir
	Decision
}

// String formats the event compactly for fault traces.
func (e Event) String() string {
	return fmt.Sprintf("op=%d %s %s delay=%v keep=%d/%.2f",
		e.Op, e.Dir, e.Kind, e.Delay, e.KeepBytes, e.KeepFrac)
}

// Config sets the per-operation fault rates of a seeded plan. Rates are
// probabilities in [0, 1] and are evaluated in severity order (reset,
// truncate, stall, partial write, latency); their sum should stay below 1.
type Config struct {
	ResetRate        float64
	TruncateRate     float64
	StallRate        float64
	PartialWriteRate float64
	LatencyRate      float64
	// LatencyDelay is the base latency spike; each spike is scaled by a
	// seeded factor in [0.5, 1.5). Defaults to 200µs.
	LatencyDelay time.Duration
	// StallDelay is how long a stalled operation blocks before failing
	// with a deadline error. Defaults to 2ms.
	StallDelay time.Duration
}

// Total returns the summed per-operation fault probability.
func (c Config) Total() float64 {
	return c.ResetRate + c.TruncateRate + c.StallRate + c.PartialWriteRate + c.LatencyRate
}

// Plan is a deterministic fault schedule. It is safe for concurrent use,
// though the recorded operation order is only meaningful when the
// connection consulting it serializes its operations (as the strictly
// request/response rCUDA transports do).
type Plan struct {
	mu      sync.Mutex
	script  []Injection
	rng     *rand.Rand
	cfg     Config
	op      int
	history []Event
	counts  [kindCount]int64
}

// Script builds a plan that injects exactly the given faults, each at its
// pinned operation index, and nothing else.
func Script(injections ...Injection) *Plan {
	s := make([]Injection, len(injections))
	copy(s, injections)
	return &Plan{script: s}
}

// Seeded builds a pseudo-random plan: every operation independently draws
// a fault according to cfg's rates from a generator seeded with seed. Two
// plans with the same seed and config produce identical fault sequences.
func Seeded(seed int64, cfg Config) *Plan {
	if cfg.LatencyDelay <= 0 {
		cfg.LatencyDelay = 200 * time.Microsecond
	}
	if cfg.StallDelay <= 0 {
		cfg.StallDelay = 2 * time.Millisecond
	}
	return &Plan{rng: rand.New(rand.NewSource(seed)), cfg: cfg}
}

// Next returns the decision for the next operation in the given direction
// and advances the plan. A nil plan always decides KindNone.
func (p *Plan) Next(dir Dir) Decision {
	if p == nil {
		return Decision{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	op := p.op
	p.op++
	var d Decision
	if p.rng != nil {
		d = p.draw()
	} else {
		for _, inj := range p.script {
			if inj.Op == op && (inj.Dir == DirAny || inj.Dir == dir) {
				d = inj.Decision
				break
			}
		}
	}
	p.counts[d.Kind]++
	if d.Kind != KindNone {
		p.history = append(p.history, Event{Op: op, Dir: dir, Decision: d})
	}
	return d
}

// draw picks one seeded decision. Exactly one uniform variate decides the
// kind; kinds that need extra randomness draw it only when selected, so
// the variate stream — and therefore the whole schedule — depends only on
// the sequence of decisions, never on frame contents or timing.
func (p *Plan) draw() Decision {
	u := p.rng.Float64()
	switch {
	case u < p.cfg.ResetRate:
		return Decision{Kind: KindReset}
	case u < p.cfg.ResetRate+p.cfg.TruncateRate:
		return Decision{Kind: KindTruncate, KeepFrac: 0.25 + p.rng.Float64()/2}
	case u < p.cfg.ResetRate+p.cfg.TruncateRate+p.cfg.StallRate:
		return Decision{Kind: KindStall, Delay: p.cfg.StallDelay}
	case u < p.cfg.ResetRate+p.cfg.TruncateRate+p.cfg.StallRate+p.cfg.PartialWriteRate:
		return Decision{Kind: KindPartialWrite, KeepFrac: 0.25 + p.rng.Float64()/2}
	case u < p.cfg.Total():
		scale := 0.5 + p.rng.Float64()
		return Decision{Kind: KindLatency, Delay: time.Duration(float64(p.cfg.LatencyDelay) * scale)}
	default:
		return Decision{}
	}
}

// Ops returns how many operations the plan has decided so far.
func (p *Plan) Ops() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.op
}

// Injected returns how many non-clean decisions the plan has made.
func (p *Plan) Injected() int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var n int64
	for k := KindNone + 1; k < kindCount; k++ {
		n += p.counts[k]
	}
	return n
}

// History returns a copy of every injected fault in firing order. Replays
// of the same seeded plan yield element-wise identical histories.
func (p *Plan) History() []Event {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	h := make([]Event, len(p.history))
	copy(h, p.history)
	return h
}

// KeepFor resolves the decision's truncation/split point against a frame
// of size n bytes, always leaving the result in [0, n-1] so a truncated
// frame is genuinely short.
func (d Decision) KeepFor(n int) int {
	keep := d.KeepBytes
	if keep <= 0 {
		frac := d.KeepFrac
		if frac <= 0 || frac >= 1 {
			frac = 0.5
		}
		keep = int(float64(n) * frac)
	}
	if keep >= n {
		keep = n - 1
	}
	if keep < 0 {
		keep = 0
	}
	return keep
}
