package rcuda

import (
	"time"

	"rcuda/internal/cudart"
	"rcuda/internal/protocol"
)

// This file carries the asynchronous extension across the wire: the client
// methods implementing cudart.AsyncRuntime (the server's half is in
// dispatch, server.go). The paper defers asynchronous transfers to
// future work; here asynchrony lives on the server's device (stream
// overlap between the PCIe copy engine and the compute engine) while the
// wire remains synchronous request/response.

var _ cudart.AsyncRuntime = (*Client)(nil)

// StreamCreate implements cudart.AsyncRuntime.
func (c *Client) StreamCreate() (cudart.Stream, error) {
	payload, err := c.roundTrip(&protocol.StreamCreateRequest{})
	if err != nil {
		return 0, err
	}
	resp, err := protocol.DecodeStreamCreateResponse(payload)
	if err != nil {
		return 0, err
	}
	if err := cudart.Error(resp.Err).AsError(); err != nil {
		return 0, err
	}
	return cudart.Stream(resp.Stream), nil
}

// streamOp issues a destroy, synchronize or query on one stream.
func (c *Client) streamOp(op protocol.Op, stream cudart.Stream) error {
	return c.callCode(protocol.Put(&c.req.streamOp, protocol.StreamOpRequest{Code: op, Stream: uint32(stream)}))
}

// StreamSynchronize implements cudart.AsyncRuntime.
func (c *Client) StreamSynchronize(s cudart.Stream) error {
	return c.streamOp(protocol.OpStreamSynchronize, s)
}

// StreamDestroy implements cudart.AsyncRuntime.
func (c *Client) StreamDestroy(s cudart.Stream) error {
	return c.streamOp(protocol.OpStreamDestroy, s)
}

// StreamQuery implements cudart.AsyncRuntime: nil means the stream has
// drained; cudaErrorNotReady means work is still pending on the server GPU.
func (c *Client) StreamQuery(s cudart.Stream) error {
	return c.streamOp(protocol.OpStreamQuery, s)
}

// EventQuery implements cudart.AsyncRuntime with the same protocol; under
// batching a query of the event just synchronized is answered locally (see
// cache.go).
func (c *Client) EventQuery(e cudart.Event) error {
	if c.eventSettled(e) {
		return nil
	}
	return c.eventOp(protocol.OpEventQuery, e)
}

// MemcpyToDeviceAsync implements cudart.AsyncRuntime. With batching it
// coalesces — enqueue copies src during encoding, so the buffer is free to
// reuse on return just as cudaMemcpyAsync from pageable memory allows.
func (c *Client) MemcpyToDeviceAsync(dst cudart.DevicePtr, src []byte, s cudart.Stream) error {
	req := protocol.Put(&c.req.toDeviceAsync, protocol.MemcpyToDeviceAsyncRequest{
		Dst: uint32(dst), Stream: uint32(s), Data: src,
	})
	err := c.callCode(req)
	req.Data = nil
	return err
}

// MemcpyToHostAsync implements cudart.AsyncRuntime. The wire returns the
// data with the acknowledgement, read into dst as MemcpyToHost's is; it is
// guaranteed meaningful to the application only after the stream
// synchronizes, as with cudaMemcpyAsync.
func (c *Client) MemcpyToHostAsync(dst []byte, src cudart.DevicePtr, s cudart.Stream) error {
	return c.copyToHost(protocol.Put(&c.req.toHostAsync, protocol.MemcpyToHostAsyncRequest{
		Src: uint32(src), Size: uint32(len(dst)), Stream: uint32(s),
	}), dst)
}

// LaunchAsync implements cudart.AsyncRuntime, reusing the launch message's
// stream field.
func (c *Client) LaunchAsync(name string, grid, block cudart.Dim3, shared uint32, params []byte, s cudart.Stream) error {
	req := protocol.Put(&c.req.launch, protocol.LaunchRequest{
		BlockDim:   [3]uint32{block.X, block.Y, block.Z},
		GridDim:    [2]uint32{grid.X, grid.Y},
		SharedSize: shared,
		Stream:     uint32(s),
		Name:       name,
		Params:     params,
	})
	err := c.callCode(req)
	req.Params = nil
	return err
}

// EventCreate implements cudart.AsyncRuntime.
func (c *Client) EventCreate() (cudart.Event, error) {
	payload, err := c.roundTrip(&protocol.EventCreateRequest{})
	if err != nil {
		return 0, err
	}
	resp, err := protocol.DecodeEventCreateResponse(payload)
	if err != nil {
		return 0, err
	}
	if err := cudart.Error(resp.Err).AsError(); err != nil {
		return 0, err
	}
	return cudart.Event(resp.Event), nil
}

// EventRecord implements cudart.AsyncRuntime; fire-and-forget, so it
// coalesces under batching.
func (c *Client) EventRecord(e cudart.Event, s cudart.Stream) error {
	c.forgetEvent(e)
	return c.callCode(protocol.Put(&c.req.eventRecord, protocol.EventRecordRequest{Event: uint32(e), Stream: uint32(s)}))
}

// eventOp issues a synchronize, destroy or query on one event.
func (c *Client) eventOp(op protocol.Op, e cudart.Event) error {
	return c.callCode(protocol.Put(&c.req.eventOp, protocol.EventOpRequest{Code: op, Event: uint32(e)}))
}

// EventSynchronize implements cudart.AsyncRuntime.
func (c *Client) EventSynchronize(e cudart.Event) error {
	err := c.eventOp(protocol.OpEventSynchronize, e)
	if err == nil {
		c.synced, c.syncedOK = e, c.batching
	}
	return err
}

// EventDestroy implements cudart.AsyncRuntime.
func (c *Client) EventDestroy(e cudart.Event) error {
	c.forgetEvent(e)
	return c.eventOp(protocol.OpEventDestroy, e)
}

// EventElapsed implements cudart.AsyncRuntime.
func (c *Client) EventElapsed(start, end cudart.Event) (time.Duration, error) {
	payload, err := c.roundTrip(protocol.Put(&c.req.eventElapsed,
		protocol.EventElapsedRequest{Start: uint32(start), End: uint32(end)}))
	if err != nil {
		return 0, err
	}
	resp, err := protocol.DecodeEventElapsedResponse(payload)
	if err != nil {
		return 0, err
	}
	if err := cudart.Error(resp.Err).AsError(); err != nil {
		return 0, err
	}
	return time.Duration(resp.ElapsedNano), nil
}
