package gpu

import (
	"bytes"
	"testing"

	"rcuda/internal/protocol"
)

func newCkptDevice(total uint64) *Device {
	return New(Config{MemoryBytes: total})
}

// TestAllocAtExact places blocks at explicit addresses and checks overlap
// and bounds rejection.
func TestAllocAtExact(t *testing.T) {
	a := newAllocator(1 << 20)
	if _, err := a.allocAt(256, 512); err != nil {
		t.Fatal(err)
	}
	if _, err := a.allocAt(1024, 100); err != nil {
		t.Fatal(err)
	}
	if got := a.inUse(); got != 512+256 {
		t.Fatalf("inUse %d, want %d", got, 512+256)
	}
	for _, bad := range []struct {
		addr, size uint32
	}{
		{0, 16},      // null guard
		{300, 16},    // unaligned
		{256, 16},    // overlaps first block exactly
		{768, 512},   // tail overlaps second block
		{1 << 20, 4}, // past capacity
		{512, 0},     // zero size
	} {
		if _, err := a.allocAt(bad.addr, bad.size); err == nil {
			t.Fatalf("allocAt(%#x,%d) accepted", bad.addr, bad.size)
		}
	}
	// The gap between the two blocks is still usable.
	if _, err := a.allocAt(768, 256); err != nil {
		t.Fatalf("gap placement: %v", err)
	}
	// And ordinary alloc still works around the placed blocks.
	if _, err := a.alloc(64); err != nil {
		t.Fatalf("first-fit after allocAt: %v", err)
	}
}

// TestContextStateRoundTrip is the device half of the checkpoint
// round-trip table: each shape exports from one context and restores into
// a fresh one bit-exactly, with quota accounting re-derived.
func TestContextStateRoundTrip(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T, c *Context)
	}{
		{"empty context", func(t *testing.T, c *Context) {}},
		{"allocations with contents", func(t *testing.T, c *Context) {
			a, err := c.Malloc(500)
			if err != nil {
				t.Fatal(err)
			}
			b, err := c.Malloc(64)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.CopyToDevice(a, bytes.Repeat([]byte{0x5a}, 500)); err != nil {
				t.Fatal(err)
			}
			if err := c.CopyToDevice(b, bytes.Repeat([]byte{0xa5}, 64)); err != nil {
				t.Fatal(err)
			}
		}},
		{"streams and events", func(t *testing.T, c *Context) {
			s, err := c.StreamCreate()
			if err != nil {
				t.Fatal(err)
			}
			e, err := c.EventCreate()
			if err != nil {
				t.Fatal(err)
			}
			dst, err := c.Malloc(2048)
			if err != nil {
				t.Fatal(err)
			}
			if err := copyAsync(c, dst, make([]byte, 2048), s); err != nil {
				t.Fatal(err)
			}
			if err := c.EventRecord(e, s); err != nil {
				t.Fatal(err)
			}
		}},
		{"quota at limit", func(t *testing.T, c *Context) {
			// Fill the (small) device completely.
			if _, err := c.Malloc(2048); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Malloc(2048 - 2*allocAlign); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := newCkptDevice(4096).NewContextPreinitialized()
			tc.build(t, src)
			st, err := src.ExportState()
			if err != nil {
				t.Fatal(err)
			}

			dst := newCkptDevice(4096).NewContextPreinitialized()
			if err := dst.RestoreState(st); err != nil {
				t.Fatal(err)
			}
			if got, want := dst.OwnedBytes(), src.OwnedBytes(); got != want {
				t.Fatalf("restored OwnedBytes %d, want %d", got, want)
			}
			if got, want := dst.OwnedCount(), src.OwnedCount(); got != want {
				t.Fatalf("restored OwnedCount %d, want %d", got, want)
			}
			st2, err := dst.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			if len(st2.Allocs) != len(st.Allocs) {
				t.Fatalf("restored %d allocs, want %d", len(st2.Allocs), len(st.Allocs))
			}
			for i := range st.Allocs {
				if st2.Allocs[i].Addr != st.Allocs[i].Addr ||
					st2.Allocs[i].Size != st.Allocs[i].Size ||
					!bytes.Equal(st2.Allocs[i].Data, st.Allocs[i].Data) {
					t.Fatalf("alloc %d drifted: %+v vs %+v",
						i, st2.Allocs[i].Addr, st.Allocs[i].Addr)
				}
			}
			if st2.Timeline.NextStream != st.Timeline.NextStream ||
				st2.Timeline.NextEvent != st.Timeline.NextEvent ||
				st2.Timeline.EngineDone != st.Timeline.EngineDone ||
				len(st2.Timeline.Streams) != len(st.Timeline.Streams) ||
				len(st2.Timeline.Events) != len(st.Timeline.Events) {
				t.Fatalf("timeline drifted:\n got %+v\nwant %+v", st2.Timeline, st.Timeline)
			}
		})
	}
}

// TestRestoreStateIsolation verifies the exported state shares no storage
// with the source: mutating the source after export must not leak into the
// restored context.
func TestRestoreStateIsolation(t *testing.T) {
	src := newCkptDevice(4096).NewContextPreinitialized()
	addr, err := src.Malloc(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.CopyToDevice(addr, bytes.Repeat([]byte{1}, 16)); err != nil {
		t.Fatal(err)
	}
	st, err := src.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if err := src.CopyToDevice(addr, bytes.Repeat([]byte{9}, 16)); err != nil {
		t.Fatal(err)
	}
	dst := newCkptDevice(4096).NewContextPreinitialized()
	if err := dst.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	out, err := dst.CopyToHost(addr, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, bytes.Repeat([]byte{1}, 16)) {
		t.Fatalf("restored bytes mutated by source write: %x", out)
	}
}

// TestRestoreStateRollback verifies a failed restore leaves the context
// empty and the device allocator unchanged.
func TestRestoreStateRollback(t *testing.T) {
	dev := newCkptDevice(4096)
	c := dev.NewContextPreinitialized()
	st := &protocol.DeviceCheckpoint{Allocs: []protocol.AllocCheckpoint{
		{Addr: 256, Size: 16, Data: make([]byte, 16)},
		{Addr: 512, Size: 16, Data: make([]byte, 8)}, // size/data mismatch
	}}
	if err := c.RestoreState(st); err == nil {
		t.Fatal("mismatched alloc data accepted")
	}
	if c.OwnedCount() != 0 || dev.MemoryInUse() != 0 {
		t.Fatalf("rollback left %d allocs, %d bytes", c.OwnedCount(), dev.MemoryInUse())
	}
	// A non-empty context refuses restore outright.
	if _, err := c.Malloc(16); err != nil {
		t.Fatal(err)
	}
	if err := c.RestoreState(&protocol.DeviceCheckpoint{}); err == nil {
		t.Fatal("restore into non-empty context accepted")
	}
}

// TestRestoreStatePostRestoreHandles checks that streams/events created
// after a restore do not collide with migrated handles, and that migrated
// pending work still synchronizes.
func TestRestoreStatePostRestoreHandles(t *testing.T) {
	src := newCkptDevice(4096).NewContextPreinitialized()
	s1, err := src.StreamCreate()
	if err != nil {
		t.Fatal(err)
	}
	e1, err := src.EventCreate()
	if err != nil {
		t.Fatal(err)
	}
	st, err := src.ExportState()
	if err != nil {
		t.Fatal(err)
	}

	dst := newCkptDevice(4096).NewContextPreinitialized()
	if err := dst.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	s2, err := dst.StreamCreate()
	if err != nil {
		t.Fatal(err)
	}
	if s2 == s1 || s2 == DefaultStream {
		t.Fatalf("post-restore stream id %d collides", s2)
	}
	e2, err := dst.EventCreate()
	if err != nil {
		t.Fatal(err)
	}
	if e2 == e1 {
		t.Fatalf("post-restore event id %d collides", e2)
	}
	if err := dst.StreamSynchronize(s1); err != nil {
		t.Fatalf("migrated stream unusable: %v", err)
	}
	if err := dst.EventSynchronize(e1); err != nil {
		t.Fatalf("migrated event unusable: %v", err)
	}
	if _, err := dst.EventElapsed(e1, e2); err != nil {
		t.Fatalf("EventElapsed across migration: %v", err)
	}
}
