package gpu

import "time"

// Device-side memory operations beyond host transfers: cudaMemset and
// device-to-device cudaMemcpy. Both execute inside device memory, so their
// cost follows the device memory bandwidth, not the PCIe link.

// MemsetTime models filling n bytes of device memory.
func (d *Device) MemsetTime(bytes int64) time.Duration {
	ms := float64(bytes) / (memoryMBps * (1 << 20)) * 1e3
	return time.Duration(ms * float64(time.Millisecond))
}

// DeviceCopyTime models moving n bytes within device memory (one read plus
// one write of every byte).
func (d *Device) DeviceCopyTime(bytes int64) time.Duration {
	return 2 * d.MemsetTime(bytes)
}

// Memset fills [ptr, ptr+size) with value, advancing the clock by the
// modeled device-memory fill time (cudaMemset). Like other default-stream
// operations it waits out pending asynchronous work first.
func (c *Context) Memset(ptr uint32, value byte, size uint32) error {
	if err := c.Synchronize(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	region, err := c.region(ptr, size)
	if err != nil {
		return err
	}
	for i := range region {
		region[i] = value
	}
	c.dev.sleep(c.dev.MemsetTime(int64(size)))
	return nil
}

// CopyDeviceToDevice copies size bytes between two device regions
// (cudaMemcpy with cudaMemcpyDeviceToDevice), never crossing the PCIe bus.
// Overlapping ranges copy as if through an intermediate buffer (Go's copy
// is memmove), matching cudaMemcpy's undefined-overlap guarantee
// conservatively.
func (c *Context) CopyDeviceToDevice(dst, src, size uint32) error {
	if err := c.Synchronize(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	srcRegion, err := c.region(src, size)
	if err != nil {
		return err
	}
	dstRegion, err := c.region(dst, size)
	if err != nil {
		return err
	}
	copy(dstRegion, srcRegion)
	c.dev.sleep(c.dev.DeviceCopyTime(int64(size)))
	return nil
}

// Properties describes the simulated device, as cudaGetDeviceProperties
// reports it.
type Properties struct {
	Name            string
	MemoryBytes     uint64
	CapabilityMajor uint32
	CapabilityMinor uint32
	// Multiprocessors is the SM count (30 on the Tesla C1060).
	Multiprocessors uint32
	// ClockMHz is the shader clock (1296 MHz on the C1060).
	ClockMHz uint32
	// MemoryMBps is the effective device-memory bandwidth.
	MemoryMBps uint32
}

// Properties returns the device's description.
func (d *Device) Properties() Properties {
	return Properties{
		Name:            d.cfg.Name,
		MemoryBytes:     d.cfg.MemoryBytes,
		CapabilityMajor: capabilityMajor,
		CapabilityMinor: capabilityMinor,
		Multiprocessors: 30,
		ClockMHz:        1296,
		MemoryMBps:      memoryMBps,
	}
}
