package protocol

import "fmt"

// This file defines the statistics extension behind the GPU pool broker.
// A broker federating several rcudad servers needs live load information —
// how many sessions each daemon serves, how much device memory is in use,
// how busy each accelerator has been — to place new sessions on the
// least-loaded server, the live counterpart of the cluster model's
// list-scheduling policy. StatsQuery/StatsReply carry a trimmed
// Server.StatsSnapshot over the wire.
//
// A StatsQuery is valid in two positions: inside an established session
// (an application asking its own server), and as a connection's *opening*
// message, where the init payload would otherwise go — the broker's health
// probes use the latter so monitoring never pays session admission and
// still works on a server that is refusing new sessions. The
// disambiguation is safe for the same reason reattach's is: a 4-byte init
// payload would declare a module-name length equal to this op code, far
// beyond the zero remaining bytes, so the init decoder rejects it.

// MaxStatsDevices bounds the device count a StatsReply may declare. It is
// far above any real daemon (Figure 1's server nodes hold a handful of
// accelerators) and exists so a corrupt or hostile frame cannot make the
// decoder allocate absurd slices.
const MaxStatsDevices = 1024

// StatsQueryRequest asks the server for its load snapshot: op (4) = 4
// bytes. No session state is read or written; the query is idempotent.
type StatsQueryRequest struct{}

// Encode implements Message.
func (m *StatsQueryRequest) Encode(dst []byte) []byte {
	return putU32(dst, uint32(OpStatsQuery))
}

// WireSize implements Message.
func (m *StatsQueryRequest) WireSize() int { return 4 }

// Op implements Request.
func (m *StatsQueryRequest) Op() Op { return OpStatsQuery }

func decodeStatsQuery(*Decoder, []byte) (Request, error) { return &StatsQueryRequest{}, nil }

// TryDecodeStatsQuery reports whether b is a stats query and, if so,
// decodes it. Handshake code calls it on the first payload of a connection
// (after the reattach check) before falling back to the init decoder.
func TryDecodeStatsQuery(b []byte) (*StatsQueryRequest, bool) {
	if len(b) != 4 || Op(getU32(b, 0)) != OpStatsQuery {
		return nil, false
	}
	return &StatsQueryRequest{}, true
}

// DeviceStats is one device's slice of a StatsReply: live allocator
// occupancy plus the scheduling gauges a broker ranks servers by.
type DeviceStats struct {
	// BytesInUse is the device memory currently allocated.
	BytesInUse uint64
	// Allocations counts live allocations on the device.
	Allocations uint32
	// Sessions counts sessions holding a context on the device.
	Sessions uint32
	// BusyNanos is the cumulative time the daemon spent executing requests
	// on the device, in nanoseconds of the daemon's clock. The difference
	// between two probes is the device's recent load; the absolute value
	// ranks servers like the cluster model's per-GPU completion times.
	BusyNanos uint64
}

// statsDeviceWire is the encoded size of one DeviceStats.
const statsDeviceWire = 24

// StatsReply is the server's load snapshot: CUDA error (4) + live
// sessions (4) + parked sessions (4) + device count (4) + per device
// {bytes in use (8) + allocations (4) + sessions (4) + busy nanos (8)} =
// 16 + 24·n bytes, optionally followed by a per-scheduling-class block of
// NumSchedClasses × {sessions (4) + p99 wait nanos (8)} = 36 bytes. The
// class block's presence is length-determined, so a pre-scheduler reply
// still decodes (HasClasses false) and a pre-scheduler decoder rejects the
// longer frame rather than misreading it.
type StatsReply struct {
	Err uint32
	// SessionsLive counts GPU sessions currently attached to a connection;
	// probe-only connections like the one carrying this reply are excluded.
	SessionsLive uint32
	// SessionsParked counts durable sessions parked awaiting a reattach.
	SessionsParked uint32
	// Devices holds one entry per device the daemon serves.
	Devices []DeviceStats
	// HasClasses reports whether the per-class block was present; Classes
	// is indexed by SchedClass code minus one (realtime, batch, besteffort).
	HasClasses bool
	Classes    [NumSchedClasses]ClassLoad
}

// Encode implements Message.
func (m *StatsReply) Encode(dst []byte) []byte {
	dst = putU32(putU32(putU32(putU32(dst, m.Err), m.SessionsLive), m.SessionsParked), uint32(len(m.Devices)))
	for _, d := range m.Devices {
		dst = putU64(putU32(putU32(putU64(dst, d.BytesInUse), d.Allocations), d.Sessions), d.BusyNanos)
	}
	if m.HasClasses {
		for _, c := range m.Classes {
			dst = putU64(putU32(dst, c.Sessions), c.P99WaitNanos)
		}
	}
	return dst
}

// WireSize implements Message.
func (m *StatsReply) WireSize() int {
	n := 16 + statsDeviceWire*len(m.Devices)
	if m.HasClasses {
		n += statsClassWire * NumSchedClasses
	}
	return n
}

// DecodeStatsReply parses a load snapshot. The declared device count plus
// an optional class block must match the payload length exactly, and the
// device count must stay within MaxStatsDevices.
func DecodeStatsReply(b []byte) (*StatsReply, error) {
	if len(b) < 16 {
		return nil, ErrShortMessage
	}
	n := getU32(b, 12)
	if n > MaxStatsDevices {
		return nil, fmt.Errorf("protocol: stats reply declares %d devices (max %d)", n, MaxStatsDevices)
	}
	devEnd := 16 + statsDeviceWire*int(n)
	hasClasses := false
	switch len(b) {
	case devEnd:
	case devEnd + statsClassWire*NumSchedClasses:
		hasClasses = true
	default:
		return nil, ErrShortMessage
	}
	m := &StatsReply{
		Err:            getU32(b, 0),
		SessionsLive:   getU32(b, 4),
		SessionsParked: getU32(b, 8),
		HasClasses:     hasClasses,
	}
	if n > 0 {
		m.Devices = make([]DeviceStats, n)
		for i := range m.Devices {
			off := 16 + statsDeviceWire*i
			m.Devices[i] = DeviceStats{
				BytesInUse:  getU64(b, off),
				Allocations: getU32(b, off+8),
				Sessions:    getU32(b, off+12),
				BusyNanos:   getU64(b, off+16),
			}
		}
	}
	if hasClasses {
		for i := range m.Classes {
			off := devEnd + statsClassWire*i
			m.Classes[i] = ClassLoad{
				Sessions:     getU32(b, off),
				P99WaitNanos: getU64(b, off+4),
			}
		}
	}
	return m, nil
}
