package rcuda

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"rcuda/internal/calib"
	"rcuda/internal/protocol"
	"rcuda/internal/transport"
)

// Tests of the lifetime rule of DESIGN.md §23: a decoded request and a
// built reply are valid until the connection's next message, and nothing
// may hold one longer.

// poisonMessages overwrites every slot and slab of the session's decoder
// and every reply it has built with 0xFF.
func poisonMessages(sess *session) {
	poison(reflect.ValueOf(&sess.dec).Elem())
	poison(reflect.ValueOf(&sess.reply).Elem())
}

// withPoisonedMessages poisons a session's message storage after every
// dispatch: whatever still reads a request or a reply then reads garbage.
func withPoisonedMessages() ServerOption {
	return func(s *Server) { s.afterDispatch = poisonMessages }
}

// poison overwrites the addressable value v, fields unexported or not, and
// what it points to. Memory a message only borrows — a frame, device
// memory, the dedup window's codes, all slices of bytes or words — is not
// written through: the slice is replaced by one of 0xFF.
func poison(v reflect.Value) {
	v = reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			poison(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			poison(v.Field(i))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			poison(v.Index(i))
		}
	case reflect.Slice:
		switch v.Type().Elem().Kind() {
		case reflect.Uint8, reflect.Uint32:
			fill := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
			for i := 0; i < fill.Len(); i++ {
				poison(fill.Index(i))
			}
			v.Set(fill)
		default: // storage the decoder owns: slabs, a batch's Subs and Decoded
			for all, i := v.Slice(0, v.Cap()), 0; i < all.Len(); i++ {
				poison(all.Index(i))
			}
		}
	case reflect.Interface:
		v.SetZero()
	case reflect.String:
		v.SetString(strings.Repeat("\xff", v.Len()+1))
	case reflect.Uint8, reflect.Uint32, reflect.Uint64:
		v.SetUint(^uint64(0))
	}
}

// TestDecodedRequestsDoNotOutliveTheirDispatch runs the scenarios that hold
// the most across a receive — inference unbatched, batched and with a lost
// batch reply answered from the dedup window, chunked copies both ways, a
// live migration — on servers that destroy every decoded request and every
// reply as soon as its dispatch returns, to their bit-exact results.
func TestDecodedRequestsDoNotOutliveTheirDispatch(t *testing.T) {
	t.Run("inference", func(t *testing.T) { inferenceOverScribbledFrames(t, withPoisonedMessages()) })

	t.Run("chunked copies", func(t *testing.T) {
		const n = 1 << 20
		_, addr, stop := startScribbleServer(t, withPoisonedMessages())
		defer stop()
		conn, err := transport.DialTCP(addr)
		if err != nil {
			t.Fatal(err)
		}
		client, err := Open(conn, moduleImage(t, calib.MM), WithChunkedTransfers(n, n/8))
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		ptr, err := client.Malloc(n)
		if err != nil {
			t.Fatal(err)
		}
		src, dst := pattern(n, 0x5a), make([]byte, n)
		if err := client.MemcpyToDevice(ptr, src); err != nil {
			t.Fatal(err)
		}
		if err := client.MemcpyToHost(dst, ptr); err != nil || !bytes.Equal(src, dst) {
			t.Fatalf("chunked round trip: %v", err)
		}
	})

	t.Run("live migration", func(t *testing.T) { migrateOverScribbledFrames(t, withPoisonedMessages()) })
}

// discardConn swallows what is sent to it.
type discardConn struct{ transport.Conn }

func (discardConn) Send(protocol.Message) error { return nil }

// TestAbortedBatchKeepsTheDedupWindow: a batch whose dispatch fails at its
// third sub-op has written two codes somewhere, and that must not be the
// buffer the dedup window answers from: the session parks, and a reattach
// that re-sends the batch before is still answered with that batch's codes.
func TestAbortedBatchKeepsTheDedupWindow(t *testing.T) {
	lb := startLoopback(t, nil)
	defer lb.stop()
	dial := lb.dial(nil)
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	client, err := Open(conn, moduleImage(t, calib.MM), WithBatching(0, 0), WithReconnect(dial))
	if err != nil {
		t.Fatal(err)
	}
	// Batch 1: a record on an event that does not exist, then two memsets
	// of memory that does, closed by the synchronization, which the failed
	// record keeps from running: codes {invalid value, success, success, 0},
	// as many as the aborted batch will have sub-ops, so its buffer would be
	// reused.
	ptr, err := client.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.EventRecord(77, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := client.Memset(ptr, 1, 64); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.DeviceSynchronize(); err == nil {
		t.Fatal("the failed record did not surface at the sync point")
	}
	_ = conn.Close()
	waitFor(t, "the session to park", 5*time.Second, func() bool { return lb.srv.Stats().SessionsParked == 1 })

	lb.srv.mu.Lock()
	sess := lb.srv.registry[client.SessionID()]
	lb.srv.mu.Unlock()
	want := append([]uint32(nil), sess.lastBatchCodes...)
	if len(want) != 4 || want[0] == 0 || want[1] != 0 || want[3] != 0 {
		t.Fatalf("batch 1 left codes %v", want)
	}
	// Batch 2 reaches a sub-op dispatch cannot run. No frame decodes to
	// this, so the parked session's dispatcher is called directly.
	aborted := &protocol.BatchRequest{Seq: 2, Decoded: []protocol.Request{
		&protocol.MemsetRequest{DevPtr: uint32(ptr), Value: 2, Size: 64},
		&protocol.MemsetRequest{DevPtr: uint32(ptr), Value: 3, Size: 64},
		&protocol.MemsetRequest{DevPtr: uint32(ptr), Value: 4, Size: 64},
		&protocol.FreeRequest{DevPtr: uint32(ptr)},
	}}
	if err := lb.srv.dispatchBatch(discardConn{}, sess, aborted); err == nil {
		t.Fatal("a batch carrying cudaFree dispatched")
	}

	// The client never saw batch 1's reply, as far as the server knows:
	// reattach and send sequence 1 again.
	raw, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	exchange := func(m protocol.Message) []byte {
		t.Helper()
		if err := raw.Send(m); err != nil {
			t.Fatal(err)
		}
		payload, err := raw.Recv()
		if err != nil {
			t.Fatal(err)
		}
		return payload
	}
	if resp, err := protocol.DecodeReattachResponse(exchange(&protocol.ReattachRequest{Session: client.SessionID()})); err != nil || resp.Err != 0 {
		t.Fatalf("reattach: %+v, %v", resp, err)
	}
	record := &protocol.EventRecordRequest{Event: 77}
	resp, err := protocol.DecodeBatchResponse(exchange(&protocol.BatchRequest{Seq: 1, Subs: [][]byte{record.Encode(nil)}}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp.Codes, want) || resp.Err != want[0] {
		t.Fatalf("replayed batch 1 answered %+v, want codes %v", resp, want)
	}
	if got := lb.srv.Stats().BatchReplays; got != 1 {
		t.Fatalf("BatchReplays = %d, want 1", got)
	}
}
