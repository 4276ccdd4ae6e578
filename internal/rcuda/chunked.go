package rcuda

import (
	"fmt"
	"time"

	"rcuda/internal/cudart"
	"rcuda/internal/gpu"
	"rcuda/internal/protocol"
	"rcuda/internal/transport"
)

// This file implements the chunk stream both extensions that split a
// payload run on: the pipelined chunked memcpy (see
// internal/protocol/chunked.go for the message flow) and the checkpoint
// stream of a live migration (migrate.go). One sender and one receiver
// carry every chunk of either. For the copy, the client splits a bulk
// transfer into chunks; the server books each chunk's PCIe push at its
// network-arrival instant on a dedicated stream, so on the simulated clock
// the transfer costs about max(network, PCIe) instead of network + PCIe. A
// whole chunked transfer is observed as the single cudaMemcpy call it
// replaces.

// chunkView returns the size bytes of a stream at off once they are ready
// to be sent.
type chunkView func(off, size uint32) ([]byte, error)

// sliceView is the view of bytes already in memory: ready at once.
func sliceView(b []byte) chunkView {
	return func(off, size uint32) ([]byte, error) { return b[off : off+size], nil }
}

// sendChunks sends a total-byte stream as chunks of stream op, chunkSize
// bytes each but the last, straight from the memory view gives out. Each
// chunk is built in *slot, the sender's storage for chunks (protocol.Put),
// which keeps none of the stream's memory once sendChunks returns. It
// returns the wire bytes sent.
func sendChunks(conn transport.Conn, slot **protocol.Chunk, op protocol.Op, total, chunkSize uint32, view chunkView) (sent int, err error) {
	chunk := protocol.Put(slot, protocol.Chunk{Kind: op})
	for off := 0; off < int(total) && err == nil; off += int(chunkSize) {
		if chunk.Data, err = view(uint32(off), min(chunkSize, total-uint32(off))); err != nil {
			break
		}
		if err = conn.Send(chunk); err != nil {
			err = fmt.Errorf("rcuda: %v %d send: %w", op, chunk.Seq, err)
			break
		}
		sent += chunk.WireSize()
		chunk.Seq++
	}
	chunk.Data = nil
	return sent, err
}

// recvChunks receives the chunks of asm's stream, each landed straight in
// its slot of the destination where the transport can and copied there
// otherwise, and returns the first frame that is no chunk of the stream —
// the End, the Commit or the status that closes it — with the bytes
// received. book, when set, sees each accepted chunk's offset, size and
// arrival instant (transport.NoArrival on a connection without stamps). A
// rejected chunk is the assembler's to report (Finish); the stream drains
// to its closing frame, so the dialogue stays coherent.
func recvChunks(conn transport.Conn, asm *protocol.ChunkAssembler, book func(off, n int, at time.Duration)) (frame []byte, recv int, err error) {
	for {
		head, landed, at, err := transport.RecvLanding(conn, asm)
		if err != nil {
			return nil, recv, fmt.Errorf("rcuda: stream recv: %w", err)
		}
		recv += len(head) + len(landed)
		off, data, addErr := 0, landed, error(nil)
		switch {
		case landed != nil:
			off, addErr = asm.AddLanded(head, landed)
		case asm.Ends(head):
			return head, recv, nil
		default:
			c, err := protocol.DecodeChunk(head)
			if err != nil {
				return nil, recv, fmt.Errorf("rcuda: malformed stream chunk: %w", err)
			}
			data = c.Data
			off, addErr = asm.Add(c)
		}
		if addErr == nil && book != nil {
			book(off, len(data), at)
		}
	}
}

// --- Client ------------------------------------------------------------------

// memcpyChunked runs a synchronous copy of at least the chunk threshold
// through the chunked protocol. It bypasses exchange, so it takes its sync
// point here, and a retry restarts the whole transfer from Begin: the
// server writes the same bytes to the same region again, or reads them
// again.
func (c *Client) memcpyChunked(op protocol.Op, kind uint32, ptr cudart.DevicePtr, buf []byte) error {
	if err := c.syncPoint(); err != nil {
		return err
	}
	return c.runRetry(op, func() error { return c.streamCopy(op, kind, ptr, buf) })
}

// streamCopy is one attempt of a chunked copy: the Begin and its
// acknowledgement, the chunks — sent from buf straight to the wire, or
// landed straight in it — and the closing status, which answers the End
// message on a copy to the device and follows the last chunk on a copy to
// the host.
func (c *Client) streamCopy(op protocol.Op, kind uint32, ptr cudart.DevicePtr, buf []byte) error {
	if c.closed.Load() {
		return cudart.ErrorInitialization
	}
	total := uint32(len(buf))
	begin := protocol.Put(&c.req.streamBegin,
		protocol.MemcpyStreamBeginRequest{Ptr: uint32(ptr), Total: total, Kind: kind, ChunkSize: c.chunkSize})
	sent, recv := begin.WireSize(), 0
	if err := c.conn.Send(begin); err != nil {
		return fmt.Errorf("rcuda: stream begin send: %w", err)
	}
	payload, err := c.conn.Recv()
	if err != nil {
		return fmt.Errorf("rcuda: stream begin recv: %w", err)
	}
	ack, err := protocol.DecodeCodeResponse(payload)
	if err != nil {
		return err
	}
	recv += len(payload)
	if ackErr := cudart.Error(ack).AsError(); ackErr != nil {
		c.observe(op, sent, recv)
		return ackErr
	}
	chunks := protocol.Chunks(total, c.chunkSize)
	var asm *protocol.ChunkAssembler
	if kind == protocol.KindHostToDevice {
		n, err := sendChunks(c.conn, &c.req.chunk, protocol.OpMemcpyStreamChunk, total, c.chunkSize, sliceView(buf))
		if err != nil {
			return err
		}
		end := protocol.Put(&c.req.streamEnd, protocol.MemcpyStreamEndRequest{Chunks: chunks})
		if err := c.conn.Send(end); err != nil {
			return fmt.Errorf("rcuda: stream end send: %w", err)
		}
		sent += n + end.WireSize()
		if payload, err = c.conn.Recv(); err != nil {
			return fmt.Errorf("rcuda: stream end recv: %w", err)
		}
		recv += len(payload)
	} else {
		// The assembler lands the chunks in buf; it is cleared on the way
		// out so that the client keeps none of the application's memory.
		asm = protocol.Put(&c.asm, protocol.ChunkAssembler{})
		defer func() { *asm = protocol.ChunkAssembler{} }()
		if err := asm.Reset(protocol.OpMemcpyStreamChunk, total, c.chunkSize, buf); err != nil {
			return err
		}
		var n int
		payload, n, err = recvChunks(c.conn, asm, nil)
		if err != nil {
			return err
		}
		recv += n
	}
	status, err := protocol.DecodeCodeResponse(payload)
	if err != nil {
		return err
	}
	c.observe(op, sent, recv)
	if err := cudart.Error(status).AsError(); err != nil || asm == nil {
		return err
	}
	return asm.Finish(chunks)
}

// --- Server ------------------------------------------------------------------

// serveMemcpyStream services one chunked transfer end to end. Recoverable
// failures (bad region, device errors, rejected chunks) are reported in the
// Begin acknowledgement or the End status; only transport and framing
// failures end the session. The transfer's stream is released on every
// exit: a durable session that parks after a cut connection must not keep
// it, or every retried copy would leave one more behind in its checkpoints.
func (s *Server) serveMemcpyStream(conn transport.Conn, sess *session, begin protocol.MemcpyStreamBeginRequest) error {
	ctx := sess.context()
	// The whole transfer's device region is validated before any payload
	// moves; host-to-device chunks land in it.
	region, err := ctx.Region(begin.Ptr, begin.Total)
	if err != nil {
		return conn.Send(sess.codeReply(err))
	}
	stream, err := ctx.StreamCreate()
	if err != nil {
		return conn.Send(sess.codeReply(err))
	}
	opErr, err := s.moveChunks(conn, sess, stream, begin, region)
	if syncErr := ctx.StreamDestroy(stream); opErr == nil {
		opErr = syncErr
	}
	if err != nil {
		return err
	}
	return conn.Send(sess.codeReply(opErr))
}

// moveChunks acknowledges the Begin and moves the transfer's chunks on its
// stream, returning the transfer's own failure (opErr) apart from one that
// ends the session (err).
//
// To the device, receiving chunk k+1 from the network overlaps pushing
// chunk k across the PCIe link: each chunk lands in its slot of the device
// region and its push is booked at the chunk's arrival instant; the End
// closes the stream. To the host, every chunk's PCIe read is booked back to
// back from the acknowledged Begin, and each chunk is sent straight from
// the device region the moment its read completes, so chunk k's network
// transfer overlaps chunk k+1's read on the device's clock.
func (s *Server) moveChunks(conn transport.Conn, sess *session, stream uint32, begin protocol.MemcpyStreamBeginRequest, region []byte) (opErr, err error) {
	if err := conn.Send(sess.codeReply(nil)); err != nil {
		return nil, err
	}
	ctx, clock := sess.context(), s.srvDevice(sess).Clock()
	if begin.Kind == protocol.KindDeviceToHost {
		start := clock.Now()
		_, err := sendChunks(conn, &sess.reply.chunk, protocol.OpMemcpyStreamChunk, begin.Total, begin.ChunkSize, func(off, size uint32) ([]byte, error) {
			// A chunk leaves once its read completes, on every clock
			// and over every connection.
			view, ready, err := ctx.HostViewAsyncAt(begin.Ptr+off, size, stream, start)
			clock.AdvanceTo(ready)
			return view, err
		})
		return nil, err
	}
	// The assembler lands the chunks in device memory; it is cleared on
	// the way out so that the session keeps no view of a region it may
	// free.
	asm := protocol.Put(&sess.asm, protocol.ChunkAssembler{})
	defer func() { *asm = protocol.ChunkAssembler{} }()
	if err := asm.Reset(protocol.OpMemcpyStreamChunk, begin.Total, begin.ChunkSize, region); err != nil {
		// Decoded Begin fields are pre-validated; reaching here is a bug.
		return nil, err
	}
	frame, _, err := recvChunks(conn, asm, func(off, n int, at time.Duration) {
		if at == transport.NoArrival {
			// A real socket stamps nothing: the chunk arrived as it was
			// received.
			at = clock.Now()
		}
		if opErr == nil {
			_, opErr = ctx.CopyToDeviceAsyncAt(begin.Ptr+uint32(off), region[off:off+n], stream, at)
		}
	})
	if err != nil {
		return nil, err
	}
	req, err := sess.dec.Decode(frame)
	if err != nil {
		return nil, fmt.Errorf("rcuda: malformed stream message: %w", err)
	}
	end, ok := req.(*protocol.MemcpyStreamEndRequest)
	if !ok {
		return nil, fmt.Errorf("rcuda: %v inside a chunked transfer", req.Op())
	}
	// Sequence violations are reported in the End status rather than
	// killing the session: frames stay message-aligned, so the dialogue is
	// still coherent after a rejected transfer.
	if opErr == nil {
		opErr = asm.Finish(end.Chunks)
	}
	return opErr, nil
}

// srvDevice returns the device of the session's selected context.
func (s *Server) srvDevice(sess *session) *gpu.Device { return s.devs[sess.cur] }
