package rcuda

import (
	"fmt"
	"time"

	"rcuda/internal/cudart"
	"rcuda/internal/gpu"
	"rcuda/internal/protocol"
	"rcuda/internal/transport"
)

// This file implements both halves of the pipelined chunked-memcpy data
// path (see internal/protocol/chunked.go for the message flow). The client
// splits a bulk transfer into chunks; the server books each chunk's PCIe
// push at its network-arrival instant on a dedicated stream, so on the
// simulated clock the transfer costs about max(network, PCIe) instead of
// network + PCIe. A whole chunked transfer is observed as the single
// cudaMemcpy call it replaces.

// --- Client ------------------------------------------------------------------

// memcpyToDeviceChunked streams src to the device through the chunked
// protocol. Each chunk's Data aliases src directly, so on a vectored
// transport the payload goes from the caller's buffer to the wire with no
// intermediate copy.
func (c *Client) memcpyToDeviceChunked(dst cudart.DevicePtr, src []byte) error {
	if c.closed.Load() {
		return cudart.ErrorInitialization
	}
	total := uint32(len(src))
	begin := &protocol.MemcpyStreamBeginRequest{
		Ptr:       uint32(dst),
		Total:     total,
		Kind:      protocol.KindHostToDevice,
		ChunkSize: c.chunkSize,
	}
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
		c.observe(protocol.OpMemcpyToDevice, sent, recv)
		return ackErr
	}
	chunk := &protocol.MemcpyStreamChunk{}
	for off, seq := 0, uint32(0); off < len(src); seq++ {
		end := off + int(c.chunkSize)
		if end > len(src) {
			end = len(src)
		}
		chunk.Seq, chunk.Data = seq, src[off:end]
		if err := c.conn.Send(chunk); err != nil {
			return fmt.Errorf("rcuda: stream chunk %d send: %w", seq, err)
		}
		sent += chunk.WireSize()
		off = end
	}
	endReq := &protocol.MemcpyStreamEndRequest{Chunks: protocol.Chunks(total, c.chunkSize)}
	if err := c.conn.Send(endReq); err != nil {
		return fmt.Errorf("rcuda: stream end send: %w", err)
	}
	sent += endReq.WireSize()
	if payload, err = c.conn.Recv(); err != nil {
		return fmt.Errorf("rcuda: stream end recv: %w", err)
	}
	status, err := protocol.DecodeCodeResponse(payload)
	if err != nil {
		return err
	}
	recv += len(payload)
	c.observe(protocol.OpMemcpyToDevice, sent, recv)
	return cudart.Error(status).AsError()
}

// memcpyToHostChunked reads device memory into dst through the chunked
// protocol: after the server acknowledges, the chunks stream in without
// per-chunk acknowledgements and are assembled directly into dst.
func (c *Client) memcpyToHostChunked(dst []byte, src cudart.DevicePtr) error {
	if c.closed.Load() {
		return cudart.ErrorInitialization
	}
	total := uint32(len(dst))
	begin := &protocol.MemcpyStreamBeginRequest{
		Ptr:       uint32(src),
		Total:     total,
		Kind:      protocol.KindDeviceToHost,
		ChunkSize: c.chunkSize,
	}
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
		c.observe(protocol.OpMemcpyToHost, sent, recv)
		return ackErr
	}
	asm, err := protocol.NewChunkAssembler(total, c.chunkSize, dst)
	if err != nil {
		return err
	}
	for i, n := uint32(0), protocol.Chunks(total, c.chunkSize); i < n; i++ {
		// The assembler is the receive's Lander: a chunk arrives with its
		// data already in its slot of dst.
		payload, landed, _, err := transport.RecvLanding(c.conn, asm)
		if err != nil {
			return fmt.Errorf("rcuda: stream chunk recv: %w", err)
		}
		if landed != nil {
			_, err = asm.AddLanded(payload, landed)
		} else {
			var chunk *protocol.MemcpyStreamChunk
			if chunk, err = protocol.DecodeMemcpyStreamChunk(payload); err == nil {
				_, err = asm.Add(chunk)
			}
		}
		if err != nil {
			return err
		}
		recv += len(payload) + len(landed)
	}
	if payload, err = c.conn.Recv(); err != nil {
		return fmt.Errorf("rcuda: stream end recv: %w", err)
	}
	status, err := protocol.DecodeCodeResponse(payload)
	if err != nil {
		return err
	}
	recv += len(payload)
	c.observe(protocol.OpMemcpyToHost, sent, recv)
	if statusErr := cudart.Error(status).AsError(); statusErr != nil {
		return statusErr
	}
	if !asm.Complete() {
		return fmt.Errorf("rcuda: stream ended with incomplete transfer")
	}
	return nil
}

// --- Server ------------------------------------------------------------------

// recvArrival receives the next message of a transfer, landing it through
// asm where the transport can, together with its arrival instant.
// Transports without arrival stamps (real sockets) fall back to the device
// clock, where the degraded synchronous copy path ignores the instant
// anyway.
func recvArrival(conn transport.Conn, dev *gpu.Device, asm *protocol.ChunkAssembler) (payload, landed []byte, at time.Duration, err error) {
	payload, landed, at, err = transport.RecvLanding(conn, asm)
	if at == transport.NoArrival {
		at = dev.Clock().Now()
	}
	return payload, landed, at, err
}

// sendReady sends a message whose payload is only available at the given
// instant (a chunk completing its PCIe read). Transports that cannot
// schedule sends just send immediately.
func sendReady(conn transport.Conn, m protocol.Message, ready time.Duration) error {
	if ss, ok := conn.(transport.ScheduledSender); ok {
		return ss.SendAt(m, ready)
	}
	return conn.Send(m)
}

// serveMemcpyStream services one chunked transfer end to end. Recoverable
// failures (bad region, device errors) are reported in the Begin
// acknowledgement or the End status; only transport and framing failures
// end the session.
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
	if err := conn.Send(sess.codeReply(nil)); err != nil {
		return err
	}
	if begin.Kind == protocol.KindHostToDevice {
		return s.serveStreamToDevice(conn, sess, stream, begin, region)
	}
	return s.serveStreamToHost(conn, sess, stream, begin)
}

// srvDevice returns the device of the session's selected context.
func (s *Server) srvDevice(sess *session) *gpu.Device { return s.devs[sess.cur] }

// serveStreamToDevice overlaps receiving chunk k+1 from the network with
// pushing chunk k across the PCIe link: the assembler puts each chunk in
// its slot of the device region — read there by a landing transport,
// copied there otherwise — its PCIe push is booked on the transfer's stream
// at the chunk's arrival instant, and the closing End waits for the stream
// to drain.
func (s *Server) serveStreamToDevice(conn transport.Conn, sess *session, stream uint32, begin protocol.MemcpyStreamBeginRequest, region []byte) error {
	ctx, dev := sess.context(), s.srvDevice(sess)
	asm, err := protocol.NewChunkAssembler(begin.Total, begin.ChunkSize, region)
	if err != nil {
		// Decoded Begin fields are pre-validated; reaching here is a bug.
		return err
	}
	var opErr error
	// placed books the PCIe push of the n bytes Add or AddLanded put at off.
	placed := func(off, n int, at time.Duration, addErr error) {
		if opErr == nil {
			opErr = addErr
		}
		if opErr == nil {
			_, opErr = ctx.CopyToDeviceAsyncAt(begin.Ptr+uint32(off), region[off:off+n], stream, at)
		}
	}
	for {
		payload, landed, at, err := recvArrival(conn, dev, asm)
		if err != nil {
			return fmt.Errorf("rcuda: stream recv: %w", err)
		}
		if landed != nil {
			off, addErr := asm.AddLanded(payload, landed)
			placed(off, len(landed), at, addErr)
			continue
		}
		req, err := sess.dec.Decode(payload)
		if err != nil {
			return fmt.Errorf("rcuda: malformed stream message: %w", err)
		}
		switch r := req.(type) {
		case *protocol.MemcpyStreamChunk:
			// A rejected chunk keeps draining to the End message.
			off, addErr := asm.Add(r)
			placed(off, len(r.Data), at, addErr)
		case *protocol.MemcpyStreamEndRequest:
			// Sequence violations are reported in the End status rather
			// than killing the session: frames stay message-aligned, so
			// the dialogue is still coherent after a rejected transfer.
			if opErr == nil {
				opErr = asm.Finish(r)
			}
			if syncErr := ctx.StreamDestroy(stream); opErr == nil {
				opErr = syncErr
			}
			return conn.Send(sess.codeReply(opErr))
		default:
			return fmt.Errorf("rcuda: %v inside a chunked transfer", req.Op())
		}
	}
}

// serveStreamToHost streams device memory back to the client. Every
// chunk's PCIe read is booked up front — back to back on the transfer's
// stream, starting at the acknowledged Begin — and each chunk is sent,
// straight from the device region, the moment its read completes, so chunk
// k's network transfer overlaps chunk k+1's PCIe read on the simulated
// clock.
func (s *Server) serveStreamToHost(conn transport.Conn, sess *session, stream uint32, begin protocol.MemcpyStreamBeginRequest) error {
	ctx := sess.context()
	start := s.srvDevice(sess).Clock().Now()
	n := protocol.Chunks(begin.Total, begin.ChunkSize)
	chunk := &protocol.MemcpyStreamChunk{}
	for seq := uint32(0); seq < n; seq++ {
		off := seq * begin.ChunkSize
		size := begin.Total - off
		if size > begin.ChunkSize {
			size = begin.ChunkSize
		}
		view, ready, err := ctx.HostViewAsyncAt(begin.Ptr+off, size, stream, start)
		if err != nil {
			// Unreachable after Begin validation short of a destroyed
			// context; the client still expects n chunks, so the session
			// cannot be salvaged.
			return fmt.Errorf("rcuda: chunked read at %#x: %w", begin.Ptr+off, err)
		}
		chunk.Seq, chunk.Data = seq, view
		if err := sendReady(conn, chunk, ready); err != nil {
			return fmt.Errorf("rcuda: stream chunk %d send: %w", seq, err)
		}
	}
	return conn.Send(sess.codeReply(ctx.StreamDestroy(stream)))
}
