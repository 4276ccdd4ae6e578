package rcuda

import (
	"rcuda/internal/cudart"
	"rcuda/internal/gpu"
	"rcuda/internal/protocol"
)

// Client-side device management: the remote runtime exposes the server's
// whole accelerator set, so one session can discover, select, and use any
// of the GPUs a server node owns (Figure 1 of the paper).

var _ cudart.DeviceRuntime = (*Client)(nil)

// DeviceCount implements cudart.DeviceRuntime. The answer cannot change
// while the session is pinned to one daemon, so with caching enabled only
// the first call per connection pays a round trip (see cache.go).
func (c *Client) DeviceCount() (int, error) {
	if n, ok := c.cachedDeviceCount(); ok {
		return n, nil
	}
	payload, err := c.roundTrip(&protocol.GetDeviceCountRequest{})
	if err != nil {
		return 0, err
	}
	resp, err := protocol.DecodeGetDeviceCountResponse(payload)
	if err != nil {
		return 0, err
	}
	if err := cudart.Error(resp.Err).AsError(); err != nil {
		return 0, err
	}
	c.storeDeviceCount(int(resp.Count))
	return int(resp.Count), nil
}

// SetDevice implements cudart.DeviceRuntime: subsequent allocations,
// copies, and launches target the selected server GPU on its own
// pre-initialized context.
func (c *Client) SetDevice(device int) error {
	// A synchronous exchange on purpose even under batching: pending
	// batched ops must execute on the previously selected device, and
	// roundTrip's sync point guarantees exactly that ordering. Events
	// belong to one context, so the synchronized one is forgotten.
	c.syncedOK = false
	if err := c.callCode(protocol.Put(&c.req.setDevice, protocol.SetDeviceRequest{Device: uint32(device)})); err != nil {
		return err
	}
	c.curDev = device
	return nil
}

// DeviceProperties implements cudart.DeviceRuntime, served from the
// per-connection cache after the first reply for each selected device.
func (c *Client) DeviceProperties() (gpu.Properties, error) {
	if p, ok := c.cachedProperties(); ok {
		return p, nil
	}
	payload, err := c.roundTrip(&protocol.GetDevicePropertiesRequest{})
	if err != nil {
		return gpu.Properties{}, err
	}
	resp, err := protocol.DecodeGetDevicePropertiesResponse(payload, c.devName)
	if err != nil {
		return gpu.Properties{}, err
	}
	c.devName = resp.Name
	if err := cudart.Error(resp.Err).AsError(); err != nil {
		return gpu.Properties{}, err
	}
	p := gpu.Properties{
		Name:            resp.Name,
		MemoryBytes:     resp.MemoryBytes,
		CapabilityMajor: resp.CapabilityMajor,
		CapabilityMinor: resp.CapabilityMinor,
		Multiprocessors: resp.Multiprocessors,
		ClockMHz:        resp.ClockMHz,
		MemoryMBps:      resp.MemoryMBps,
	}
	c.storeProperties(p)
	return p, nil
}

// Memset implements cudart.DeviceRuntime; a fire-and-forget write, so it
// coalesces under batching.
func (c *Client) Memset(ptr cudart.DevicePtr, value byte, size uint32) error {
	return c.callCode(protocol.Put(&c.req.memset, protocol.MemsetRequest{
		DevPtr: uint32(ptr), Value: uint32(value), Size: size,
	}))
}

// MemcpyDeviceToDevice implements cudart.DeviceRuntime: the copy stays on
// the server GPU, so only 16 bytes plus a result code cross the network —
// the payoff of keeping intermediate results in remote device memory.
func (c *Client) MemcpyDeviceToDevice(dst, src cudart.DevicePtr, size uint32) error {
	return c.callCode(protocol.Put(&c.req.d2d, protocol.MemcpyD2DRequest{
		Dst: uint32(dst), Src: uint32(src), Size: size,
	}))
}
