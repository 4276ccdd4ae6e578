package protocol

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

func TestStatsOpNames(t *testing.T) {
	for op, want := range map[Op]string{OpStatsQuery: "stats query"} {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", uint32(op), got, want)
		}
	}
}

func TestStatsQueryRoundTrip(t *testing.T) {
	req := &StatsQueryRequest{}
	raw := req.Encode(nil)
	if len(raw) != req.WireSize() {
		t.Fatalf("encoded %d bytes, WireSize says %d", len(raw), req.WireSize())
	}
	decoded, err := DecodeRequest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := decoded.(*StatsQueryRequest); !ok {
		t.Fatalf("decoded %#v", decoded)
	}
	got, ok := TryDecodeStatsQuery(raw)
	if !ok || got == nil {
		t.Fatalf("TryDecodeStatsQuery = %+v, %v", got, ok)
	}
}

// statsReplySeeds are the boundary snapshots the broker must survive: a
// devices-free daemon and a daemon whose every gauge is pinned at its
// maximum.
func statsReplySeeds() []*StatsReply {
	return []*StatsReply{
		{},
		{Err: 3, SessionsLive: 2, SessionsParked: 1},
		{SessionsLive: 7, Devices: []DeviceStats{
			{BytesInUse: 4 << 30, Allocations: 3, Sessions: 2, BusyNanos: 12345678},
			{},
		}},
		{
			Err:            math.MaxUint32,
			SessionsLive:   math.MaxUint32,
			SessionsParked: math.MaxUint32,
			Devices: []DeviceStats{{
				BytesInUse:  math.MaxUint64,
				Allocations: math.MaxUint32,
				Sessions:    math.MaxUint32,
				BusyNanos:   math.MaxUint64,
			}},
		},
	}
}

func TestStatsReplyRoundTrip(t *testing.T) {
	for i, resp := range statsReplySeeds() {
		raw := resp.Encode(nil)
		if len(raw) != resp.WireSize() {
			t.Fatalf("seed %d: encoded %d bytes, WireSize says %d", i, len(raw), resp.WireSize())
		}
		back, err := DecodeStatsReply(raw)
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		if back.Err != resp.Err || back.SessionsLive != resp.SessionsLive ||
			back.SessionsParked != resp.SessionsParked || len(back.Devices) != len(resp.Devices) {
			t.Fatalf("seed %d: round trip %+v -> %+v", i, resp, back)
		}
		for d := range resp.Devices {
			if back.Devices[d] != resp.Devices[d] {
				t.Fatalf("seed %d device %d: %+v -> %+v", i, d, resp.Devices[d], back.Devices[d])
			}
		}
		if !bytes.Equal(back.Encode(nil), raw) {
			t.Fatalf("seed %d: re-encode mismatch", i)
		}
	}
}

// TestStatsReplyClassBlock covers the optional per-class trailer: a reply
// carrying it round-trips, a reply without it reads HasClasses false, and
// a partial trailer is rejected.
func TestStatsReplyClassBlock(t *testing.T) {
	resp := &StatsReply{
		SessionsLive: 5,
		Devices:      []DeviceStats{{BytesInUse: 1 << 20, Sessions: 5, BusyNanos: 42}},
		HasClasses:   true,
		Classes: [NumSchedClasses]ClassLoad{
			{Sessions: 2, P99WaitNanos: 1_500_000},
			{Sessions: 3, P99WaitNanos: 40_000_000},
			{Sessions: 0, P99WaitNanos: 0},
		},
	}
	raw := resp.Encode(nil)
	if len(raw) != resp.WireSize() {
		t.Fatalf("encoded %d bytes, WireSize says %d", len(raw), resp.WireSize())
	}
	back, err := DecodeStatsReply(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !back.HasClasses || back.Classes != resp.Classes {
		t.Fatalf("class block round trip: %+v", back)
	}
	if !bytes.Equal(back.Encode(nil), raw) {
		t.Fatal("re-encode mismatch")
	}
	// Without the trailer the same reply decodes as a legacy snapshot.
	legacy := raw[:len(raw)-statsClassWire*NumSchedClasses]
	lback, err := DecodeStatsReply(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if lback.HasClasses {
		t.Fatal("legacy-length reply claims a class block")
	}
	// A torn trailer (any partial class block) must be rejected.
	for cut := 1; cut < statsClassWire*NumSchedClasses; cut++ {
		if _, err := DecodeStatsReply(raw[:len(raw)-cut]); err == nil {
			t.Fatalf("reply with %d-byte torn class block accepted", statsClassWire*NumSchedClasses-cut)
		}
	}
}

// TestDecodeStatsReplyTruncation walks every prefix of every seed through
// the reply decoder: errors only, no panics, no partial decodes.
func TestDecodeStatsReplyTruncation(t *testing.T) {
	for i, resp := range statsReplySeeds() {
		full := resp.Encode(nil)
		for cut := 0; cut < len(full); cut++ {
			if _, err := DecodeStatsReply(full[:cut]); err == nil {
				t.Fatalf("seed %d cut at %d: truncated reply accepted", i, cut)
			}
		}
	}
}

// TestDecodeStatsReplyRejectsAbsurdDeviceCount guards the allocation bound:
// a corrupt count field must not be believed.
func TestDecodeStatsReplyRejectsAbsurdDeviceCount(t *testing.T) {
	raw := (&StatsReply{}).Encode(nil)
	// Overwrite the device count with a huge value, leaving the length at
	// the zero-device 16 bytes.
	copy(raw[12:16], []byte{0xff, 0xff, 0xff, 0xff})
	if _, err := DecodeStatsReply(raw); err == nil {
		t.Fatal("absurd device count accepted")
	}
	// A count just above the cap with a matching payload length must still
	// be rejected, not allocated.
	big := &StatsReply{Devices: make([]DeviceStats, 2)}
	raw = big.Encode(nil)
	copy(raw[12:16], putU32(nil, MaxStatsDevices+1))
	if _, err := DecodeStatsReply(raw); err == nil {
		t.Fatal("over-cap device count accepted")
	}
}

// TestTryDecodeStatsQueryRejectsOtherOpenings guards the three-way opening
// message discrimination: init and reattach payloads must never be
// mistaken for a probe, and vice versa.
func TestTryDecodeStatsQueryRejectsOtherOpenings(t *testing.T) {
	others := [][]byte{
		(&InitRequest{Module: []byte("m")}).Encode(nil),
		(&InitRequest{}).Encode(nil), // 4 bytes: module length 0 != OpStatsQuery
		(&ReattachRequest{Session: 1}).Encode(nil),
	}
	for _, raw := range others {
		if q, ok := TryDecodeStatsQuery(raw); ok {
			t.Fatalf("payload %x misread as stats query %+v", raw, q)
		}
	}
	// The reverse: a probe frame must not decode as a plausible init. Its
	// leading u32 (the op) would be the declared module length, far beyond
	// the zero remaining bytes.
	probe := (&StatsQueryRequest{}).Encode(nil)
	if ir, err := DecodeInitRequest(probe); err == nil {
		t.Fatalf("stats query decoded as init with module %x", ir.Module)
	}
	if _, ok := TryDecodeReattach(probe); ok {
		t.Fatal("stats query misread as reattach")
	}
}

// FuzzDecodeStatsReply feeds arbitrary bytes to the reply decoder the
// broker's health loop trusts: never a panic, never an absurd allocation
// from a corrupt device count, and every accepted payload re-encodes
// canonically with a WireSize matching the bytes accepted.
func FuzzDecodeStatsReply(f *testing.F) {
	for _, resp := range statsReplySeeds() {
		full := resp.Encode(nil)
		f.Add(full)
		f.Add(full[:len(full)/2])
		if len(full) > 16 {
			f.Add(full[:len(full)-1]) // truncated mid-device
			f.Add(full[:17])          // cut inside the first device record
		}
	}
	withClasses := (&StatsReply{
		SessionsLive: 2,
		Devices:      []DeviceStats{{Sessions: 2, BusyNanos: 7}},
		HasClasses:   true,
		Classes:      [NumSchedClasses]ClassLoad{{Sessions: 1, P99WaitNanos: 9}, {Sessions: 1}, {}},
	}).Encode(nil)
	f.Add(withClasses)
	f.Add(withClasses[:len(withClasses)-1]) // torn class block
	huge := (&StatsReply{}).Encode(nil)
	huge[12], huge[13] = 0xff, 0xff // declares 65535 devices with no payload
	f.Add(huge)
	pastCap := (&StatsReply{Devices: make([]DeviceStats, 4)}).Encode(nil)
	putU32(pastCap[:12], MaxStatsDevices+1) // device count past the cap
	f.Add(pastCap)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := DecodeStatsReply(raw)
		if err != nil {
			return
		}
		if m == nil {
			t.Fatal("nil reply with nil error")
		}
		if len(m.Devices) > MaxStatsDevices {
			t.Fatalf("decoder accepted %d devices (max %d)", len(m.Devices), MaxStatsDevices)
		}
		if m.WireSize() != len(raw) {
			t.Fatalf("WireSize %d != accepted payload %d", m.WireSize(), len(raw))
		}
		if !bytes.Equal(m.Encode(nil), raw) {
			t.Fatalf("re-encode mismatch on %x", raw)
		}
	})
}

func TestDecodeRequestBeyondMigrateSentinel(t *testing.T) {
	raw := putU32(nil, uint32(opCount))
	if _, err := DecodeRequest(raw); !errors.Is(err, ErrBadOp) {
		t.Fatalf("op beyond the table: %v, want ErrBadOp", err)
	}
}
