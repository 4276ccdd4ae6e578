// Package trace records the client–server dialogue of an rCUDA session and
// renders it as the paper's Figure 2: the sequence of messages a kernel
// execution exchanges, grouped into the seven phases of Section III
// (initialization, memory allocation, input data transfer, kernel
// execution, output data transfer, memory release, finalization).
package trace

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"rcuda/internal/protocol"
	"rcuda/internal/vclock"
)

// Phase is one of the seven execution phases of Section III. The phases and
// each operation's place among them are columns of the protocol's op table.
type Phase = protocol.Phase

// PhaseOf maps a protocol operation to its phase.
func PhaseOf(op protocol.Op) Phase { return op.Phase() }

// Event is one completed remote call.
type Event struct {
	Op        protocol.Op
	SendBytes int
	RecvBytes int
	// At is the clock instant the call completed.
	At time.Duration
}

// Recorder implements rcuda.Observer: it timestamps every remote call on
// the given clock. It is safe for concurrent use.
type Recorder struct {
	clock vclock.Clock

	mu     sync.Mutex
	events []Event
}

// NewRecorder creates a recorder stamping events on c.
func NewRecorder(c vclock.Clock) *Recorder { return &Recorder{clock: c} }

// Call implements the observer contract.
func (r *Recorder) Call(op protocol.Op, sentBytes, recvBytes int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, Event{
		Op:        op,
		SendBytes: sentBytes,
		RecvBytes: recvBytes,
		At:        r.clock.Now(),
	})
}

// Events returns a copy of the recorded events in completion order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// Breakdown aggregates per-phase wall time (the interval from the previous
// event's completion to this one's) and traffic.
type Breakdown struct {
	Phase     Phase
	Calls     int
	SendBytes int64
	RecvBytes int64
	Time      time.Duration
}

// PhaseBreakdown summarizes the recording per phase, in phase order. The
// first event's interval is measured from the given session start instant.
func (r *Recorder) PhaseBreakdown(sessionStart time.Duration) []Breakdown {
	events := r.Events()
	out := make([]Breakdown, protocol.NumPhases)
	for i := range out {
		out[i].Phase = Phase(i)
	}
	prev := sessionStart
	for _, e := range events {
		b := &out[PhaseOf(e.Op)]
		b.Calls++
		b.SendBytes += int64(e.SendBytes)
		b.RecvBytes += int64(e.RecvBytes)
		b.Time += e.At - prev
		prev = e.At
	}
	return out
}

// CSV renders the recorded events as comma-separated lines — one event per
// row with its operation, payload sizes, and completion instant in
// microseconds — for external plotting of the Figure 2 timeline.
func (r *Recorder) CSV() string {
	var sb strings.Builder
	sb.WriteString("op,phase,send_bytes,recv_bytes,completed_us\n")
	for _, e := range r.Events() {
		fmt.Fprintf(&sb, "%q,%q,%d,%d,%.1f\n",
			e.Op, PhaseOf(e.Op), e.SendBytes, e.RecvBytes,
			float64(e.At)/float64(time.Microsecond))
	}
	return sb.String()
}

// Render draws the session as an ASCII sequence diagram in the style of
// Figure 2: one arrow pair per remote call, annotated with payload sizes,
// grouped under phase headings.
func (r *Recorder) Render() string {
	var sb strings.Builder
	sb.WriteString("Client                                            Server\n")
	sb.WriteString("  |                                                  |\n")
	lastPhase := protocol.NumPhases // no heading printed yet
	for _, e := range r.Events() {
		if p := PhaseOf(e.Op); p != lastPhase {
			fmt.Fprintf(&sb, "  |-- %s %s\n", p, strings.Repeat("-", max(0, 44-len(p.String()))))
			lastPhase = p
		}
		fmt.Fprintf(&sb, "  |--- %-22s (%6d B) --------------->|\n", e.Op, e.SendBytes)
		if e.RecvBytes > 0 {
			fmt.Fprintf(&sb, "  |<-- result %28s (%6d B) ---|\n", "", e.RecvBytes)
		}
		fmt.Fprintf(&sb, "  |   t=%-12s %31s|\n", e.At, "")
	}
	return sb.String()
}
