package gpu

import "time"

// This file is the device half of the chunked-memcpy pipeline (see
// internal/protocol/chunked.go). The server validates a whole transfer by
// resolving its Region before acknowledging the Begin message, lands the
// chunks in that view, and books each chunk's PCIe push at the instant the
// chunk arrived from the network rather than at the instant it got around
// to dispatching it, so the copy engine drains chunk k while chunk k+1 is
// still on the wire. All entry points fall back to the synchronous path on
// the default stream or on a clock that cannot jump (wall time), where
// overlap cannot be modeled.

// CopyToDeviceAsyncAt writes host data into device memory now and books
// its PCIe time on the copy engine and the stream, with the transfer
// starting no earlier than notBefore on the device clock. It returns the
// modeled completion instant. On the default stream or a non-advancing
// clock it degrades to the synchronous CopyToDevice. Like CopyToDevice it
// moves nothing when data is the destination's own view (see Region).
func (c *Context) CopyToDeviceAsyncAt(dst uint32, data []byte, stream uint32, notBefore time.Duration) (time.Duration, error) {
	if stream == DefaultStream || !c.asyncCapable() {
		if err := c.CopyToDevice(dst, data); err != nil {
			return 0, err
		}
		return c.dev.cfg.Clock.Now(), nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	region, err := c.region(dst, uint32(len(data)))
	if err != nil {
		return 0, err
	}
	place(region, data)
	return c.scheduleAt(copyEngine, stream, c.dev.PCIeTime(int64(len(data))), notBefore)
}

// HostViewAsyncAt is HostView for one chunk of a pipelined device-to-host
// read: it books the transfer on the copy engine and the stream, starting
// no earlier than notBefore, and returns the device memory to send with the
// modeled completion instant — the earliest moment the bytes may be put on
// the network. On the default stream or a non-advancing clock it degrades
// to the synchronous HostView.
func (c *Context) HostViewAsyncAt(src, size, stream uint32, notBefore time.Duration) ([]byte, time.Duration, error) {
	if stream == DefaultStream || !c.asyncCapable() {
		region, err := c.HostView(src, size)
		return region, c.dev.cfg.Clock.Now(), err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	region, err := c.region(src, size)
	if err != nil {
		return nil, 0, err
	}
	ready, err := c.scheduleAt(copyEngine, stream, c.dev.PCIeTime(int64(size)), notBefore)
	if err != nil {
		return nil, 0, err
	}
	return region, ready, nil
}
