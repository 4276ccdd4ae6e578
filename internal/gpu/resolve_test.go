package gpu

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"rcuda/internal/raceflag"
	"rcuda/internal/vclock"
)

// memProbeKernel resolves the range its parameters name — a device address
// and a byte count — through ExecContext.Mem and touches nothing.
func memProbeKernel() *Kernel {
	return &Kernel{
		Name: "memprobe",
		Run: func(ec *ExecContext) error {
			addr, err := ec.Params.U32()
			if err != nil {
				return err
			}
			size, err := ec.Params.U32()
			if err != nil {
				return err
			}
			mem, err := ec.Mem(addr, uint64(size))
			if err == nil && len(mem) != int(size) {
				return fmt.Errorf("Mem(%#x, %d) returned %d bytes", addr, size, len(mem))
			}
			return err
		},
	}
}

func probeContext(t *testing.T, dev *Device) *Context {
	t.Helper()
	c := dev.NewContextPreinitialized()
	if err := c.LoadModule(testModule("probe_mod", 64, memProbeKernel(), doublerKernel())); err != nil {
		t.Fatal(err)
	}
	return c
}

// A context resolves device addresses against the blocks it allocated or
// restored and nothing else: the edges of a block, a freed block, a block
// another context now holds at the same address, and a block a checkpoint
// placed, through both resolvers.
func TestContextResolvesItsOwnBlocks(t *testing.T) {
	// The two ways device memory is resolved for a caller: the landing
	// view a transport asks for and the operand view a kernel asks for.
	resolvers := map[string]func(c *Context, addr, size uint32) error{
		"Region": func(c *Context, addr, size uint32) error {
			view, err := c.Region(addr, size)
			if err == nil && len(view) != int(size) {
				return fmt.Errorf("Region(%#x, %d) returned %d bytes", addr, size, len(view))
			}
			return err
		},
		"ExecContext.Mem": func(c *Context, addr, size uint32) error {
			return c.Launch("memprobe", Dim3{X: 1}, Dim3{X: 1}, 0, PackParams(addr, size))
		},
	}
	for name, resolve := range resolvers {
		t.Run(name, func(t *testing.T) {
			reaches := func(what string, c *Context, addr, size uint32) {
				t.Helper()
				if err := resolve(c, addr, size); err != nil {
					t.Errorf("%s: %v", what, err)
				}
			}
			refused := func(what string, c *Context, addr, size uint32) {
				t.Helper()
				if err := resolve(c, addr, size); !errors.Is(err, ErrInvalidDevPtr) {
					t.Errorf("%s: %v, want ErrInvalidDevPtr", what, err)
				}
			}
			dev := New(Config{Clock: vclock.NewSim()})
			owner, other := probeContext(t, dev), probeContext(t, dev)
			below, _ := owner.Malloc(256)
			p, err := owner.Malloc(1000)
			if err != nil {
				t.Fatal(err)
			}
			above, _ := owner.Malloc(256)
			reaches("whole block", owner, p, 1000)
			reaches("interior pointer", owner, p+100, 200)
			reaches("last byte", owner, p+999, 1)
			reaches("block below", owner, below, 256)
			reaches("block above", owner, above, 256)
			refused("one byte past the end", owner, p+1000, 1)
			refused("range running one byte past the end", owner, p+500, 501)
			refused("another context's view of the block", other, p, 1)

			if err := owner.Free(p); err != nil {
				t.Fatal(err)
			}
			refused("freed block", owner, p, 1)
			refused("interior pointer of a freed block", owner, p+100, 1)
			q, err := other.Malloc(1000)
			if err != nil || q != p {
				t.Fatalf("first fit placed the other context's block at %#x (%v), want %#x", q, err, p)
			}
			refused("address another context re-allocated", owner, p, 1)
			reaches("re-allocated block, its new owner", other, q+999, 1)
			reaches("neighbours of a freed block", owner, above, 256)

			st, err := owner.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			dest := New(Config{Clock: vclock.NewSim()})
			restored, stranger := probeContext(t, dest), probeContext(t, dest)
			if err := restored.RestoreState(st); err != nil {
				t.Fatal(err)
			}
			reaches("restored block", restored, above, 256)
			reaches("last byte of a restored block", restored, below+255, 1)
			refused("one byte past a restored block", restored, below+256, 1)
			refused("freed block, after a restore", restored, p, 1)
			refused("another context's view of a restored block", stranger, above, 1)
		})
	}
}

// No device-wide lock sits on the access path: with Device.mu held, every
// way a context reads or writes its own memory still returns.
func TestAccessTakesNoDeviceLock(t *testing.T) {
	dev := New(Config{Clock: vclock.NewSim()})
	c := probeContext(t, dev)
	p, err := c.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	accesses := map[string]func() error{
		"Region": func() error { _, err := c.Region(p, 64); return err },
		"Mem":    func() error { return c.Launch("memprobe", Dim3{X: 1}, Dim3{X: 1}, 0, PackParams(p, uint32(64))) },
		"CopyToDevice": func() error {
			return c.CopyToDevice(p, make([]byte, 64))
		},
		"HostView":           func() error { _, err := c.HostView(p, 64); return err },
		"Memset":             func() error { return c.Memset(p, 1, 64) },
		"CopyDeviceToDevice": func() error { return c.CopyDeviceToDevice(p, p+32, 32) },
		"ExportState":        func() error { _, err := c.ExportState(); return err },
	}
	dev.mu.Lock()
	defer dev.mu.Unlock()
	for name, access := range accesses {
		done := make(chan error, 1)
		go func() { done <- access() }()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%s with Device.mu held: %v", name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s waits for Device.mu", name)
		}
	}
}

// Two contexts on one device launch on their own memory while both
// allocate and free around it; run under -race, this is the check that the
// per-context tables and the allocator's lock leave nothing unguarded.
func TestContextsLaunchAllocateAndFreeConcurrently(t *testing.T) {
	dev := New(Config{Clock: vclock.NewSim()})
	rounds := 400
	if raceflag.Enabled || testing.Short() {
		rounds = 100
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for w := 0; w < 2; w++ {
		c := probeContext(t, dev)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs <- func() error {
				const n = 64
				keep, err := c.Malloc(4 * n)
				if err != nil {
					return err
				}
				for r := 0; r < rounds; r++ {
					tmp, err := c.Malloc(uint32(256 + 64*(r%7)))
					if err != nil {
						return err
					}
					in := make([]byte, 4*n)
					for i := 0; i < n; i++ {
						in[4*i] = byte((w + r + i) % 128) // doubles without a carry
					}
					if err := c.CopyToDevice(keep, in); err != nil {
						return err
					}
					if err := c.Launch("doubler", Dim3{X: 1}, Dim3{X: n}, 0, PackParams(keep, uint32(n))); err != nil {
						return err
					}
					out, err := c.CopyToHost(keep, 4*n)
					if err != nil {
						return err
					}
					for i := 0; i < n; i++ {
						in[4*i] *= 2
					}
					if !bytes.Equal(out, in) {
						return fmt.Errorf("context %d round %d: launch result corrupted", w, r)
					}
					if err := c.Free(tmp); err != nil {
						return err
					}
				}
				return c.Destroy()
			}()
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := dev.Allocations(); n != 0 {
		t.Fatalf("%d allocations left on the device", n)
	}
}

// A steady-state Malloc and Free pair allocates the block and its backing
// store and nothing else: the context's table reuses its capacity.
func TestMallocFreeAllocationGate(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	dev := New(Config{Clock: vclock.NewSim()})
	c := dev.NewContextPreinitialized()
	for i := 0; i < 8; i++ {
		if _, err := c.Malloc(256); err != nil {
			t.Fatal(err)
		}
	}
	var ferr error
	pair := func() {
		p, err := c.Malloc(4096)
		if err == nil {
			err = c.Free(p)
		}
		if err != nil {
			ferr = err
		}
	}
	pair()
	if got := testing.AllocsPerRun(200, pair); got > 2 {
		t.Errorf("Malloc+Free allocates %.0f times, want <= 2 (block and backing store)", got)
	}
	if ferr != nil {
		t.Fatal(ferr)
	}
}
