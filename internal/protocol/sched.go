package protocol

import "errors"

// This file defines the wire vocabulary of the multi-tenant scheduler: the
// class/weight pair a session announces in its extended hello, carries
// across a migration inside the checkpoint, and the per-class load block a
// daemon appends to its stats reply. The codes are deliberately distinct
// from the scheduler's internal enum — 0 on the wire means "unspecified,
// apply the server default", so a zero-filled extended hello is
// indistinguishable in meaning from the legacy bare one.

// Scheduling class codes.
const (
	// SchedClassUnspecified leaves the choice to the server (its default
	// class; Batch unless configured otherwise).
	SchedClassUnspecified uint32 = iota
	// SchedClassRealtime marks a latency-sensitive session.
	SchedClassRealtime
	// SchedClassBatch is the throughput-oriented default.
	SchedClassBatch
	// SchedClassBestEffort yields to everything else.
	SchedClassBestEffort

	maxSchedClass = SchedClassBestEffort
)

// MaxSchedWeight bounds the session weight an extended hello or a
// checkpoint may carry; decoders reject larger values with
// ErrBadSchedWeight.
const MaxSchedWeight = 1 << 16

// Typed decode errors for the scheduling fields; decoders wrap them with
// the offending value.
var (
	ErrBadSchedClass  = errors.New("protocol: scheduling class out of range")
	ErrBadSchedWeight = errors.New("protocol: scheduling weight out of range")
)

// NumSchedClasses is the number of concrete scheduling classes (excluding
// the unspecified code) — the row count of a stats reply's class block.
const NumSchedClasses = 3

// ClassRow maps a class code to its row: realtime 0, batch 1, besteffort 2
// — its index in StatsReply.Classes and the scheduler's class (sched.Class).
// Unspecified folds into batch, the class a scheduling daemon gives a
// session that declares none; ok is false for a code past besteffort,
// which every decoder rejects.
func ClassRow(code uint32) (row int, ok bool) {
	if code == SchedClassUnspecified {
		code = SchedClassBatch
	}
	if code > maxSchedClass {
		return 0, false
	}
	return int(code - 1), true
}

// ClassCode is ClassRow's inverse: the code of a row.
func ClassCode(row int) uint32 { return uint32(row) + 1 }

// ClassLoad is one scheduling class's slice of a StatsReply: how many
// attached sessions declared the class and the class's p99 queue wait,
// merged across the daemon's devices. A broker placing a realtime session
// ranks servers by the realtime row's headroom.
type ClassLoad struct {
	// Sessions counts attached sessions of the class.
	Sessions uint32
	// P99WaitNanos is the class's 99th-percentile scheduler queue wait in
	// nanoseconds of the daemon's clock.
	P99WaitNanos uint64
}

// statsClassWire is the encoded size of one ClassLoad.
const statsClassWire = 12
