package gpu

import (
	"bytes"
	"errors"
	"testing"

	"rcuda/internal/vclock"
)

// Two contexts on one device share its address space — first-fit addresses
// are deterministic, so a tenant can guess a neighbour's pointer — but not
// its memory: every access path resolves through Context.region, which
// admits only blocks the context owns.
func TestContextReachesOnlyItsOwnAllocations(t *testing.T) {
	dev := New(Config{Clock: vclock.NewSim()})
	mod := testModule("isolation_mod", 64, doublerKernel())
	owner, intruder := dev.NewContextPreinitialized(), dev.NewContextPreinitialized()
	for _, c := range []*Context{owner, intruder} {
		if err := c.LoadModule(mod); err != nil {
			t.Fatal(err)
		}
	}
	secret := bytes.Repeat([]byte{0xa5}, 256)
	theirs, _ := owner.Malloc(256)
	mine, _ := intruder.Malloc(256)
	if err := owner.CopyToDevice(theirs, secret); err != nil {
		t.Fatal(err)
	}
	stream, _ := intruder.StreamCreate()

	attempts := map[string]func() error{
		"CopyToHost":          func() error { _, err := intruder.CopyToHost(theirs, 16); return err },
		"HostView":            func() error { _, err := intruder.HostView(theirs, 16); return err },
		"HostViewAsyncAt":     func() error { _, _, err := intruder.HostViewAsyncAt(theirs, 16, stream, 0); return err },
		"Region":              func() error { _, err := intruder.Region(theirs, 16); return err },
		"CopyToDevice":        func() error { return intruder.CopyToDevice(theirs, make([]byte, 16)) },
		"CopyToDeviceAsync":   func() error { return intruder.CopyToDeviceAsync(theirs, make([]byte, 16), stream) },
		"CopyToDeviceAsyncAt": func() error { _, err := intruder.CopyToDeviceAsyncAt(theirs, make([]byte, 16), stream, 0); return err },
		"Memset":              func() error { return intruder.Memset(theirs, 0, 16) },
		"D2D source":          func() error { return intruder.CopyDeviceToDevice(mine, theirs, 16) },
		"D2D destination":     func() error { return intruder.CopyDeviceToDevice(theirs, mine, 16) },
		"kernel operand": func() error {
			return intruder.Launch("doubler", Dim3{X: 1}, Dim3{X: 4}, 0, PackParams(theirs, uint32(4)))
		},
		"kernel operand, stream": func() error {
			return intruder.LaunchAsync("doubler", Dim3{X: 1}, Dim3{X: 4}, 0, PackParams(theirs, uint32(4)), stream)
		},
		"interior pointer": func() error { return intruder.Memset(theirs+128, 0, 16) },
	}
	for name, attempt := range attempts {
		if err := attempt(); !errors.Is(err, ErrInvalidDevPtr) {
			t.Errorf("%s on another context's allocation: %v, want ErrInvalidDevPtr", name, err)
		}
	}
	if got, err := owner.CopyToHost(theirs, 256); err != nil || !bytes.Equal(got, secret) {
		t.Fatalf("owner's allocation changed under the attempts: %v", err)
	}

	// A context restored from a checkpoint owns what it restored: the
	// addresses are the old ones, the access is its own.
	st, err := owner.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	other := New(Config{Clock: vclock.NewSim()})
	restored := other.NewContextPreinitialized()
	if err := restored.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if got, err := restored.CopyToHost(theirs, 256); err != nil || !bytes.Equal(got, secret) {
		t.Fatalf("restored context cannot read what it restored: %v", err)
	}
	if err := restored.Memset(theirs, 1, 256); err != nil {
		t.Fatalf("restored context cannot write what it restored: %v", err)
	}

	// Freed memory another context then allocates belongs to that context.
	if err := owner.Free(theirs); err != nil {
		t.Fatal(err)
	}
	reused, _ := intruder.Malloc(256)
	if reused != theirs {
		t.Fatalf("first fit reused %#x, expected %#x", reused, theirs)
	}
	if err := owner.Memset(theirs, 0, 16); !errors.Is(err, ErrInvalidDevPtr) {
		t.Errorf("previous owner still reaches a freed, reallocated block: %v", err)
	}
	if err := intruder.Memset(reused, 0, 16); err != nil {
		t.Errorf("new owner: %v", err)
	}
}

// The landing view is the device region itself, and a copy whose source is
// that view moves nothing but still costs the transfer.
func TestCopyFromTheRegionsOwnViewOnlyCharges(t *testing.T) {
	clk := vclock.NewSim()
	dev := New(Config{Clock: clk})
	ctx := dev.NewContextPreinitialized()
	ptr, _ := ctx.Malloc(1 << 20)
	view, err := ctx.Region(ptr+4096, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if before := clk.Now(); before != 0 {
		t.Fatalf("Region advanced the clock to %v", before)
	}
	for i := range view {
		view[i] = byte(i)
	}
	want := append([]byte(nil), view...)
	if err := ctx.CopyToDevice(ptr+4096, view); err != nil {
		t.Fatal(err)
	}
	if got, pcie := clk.Now(), dev.PCIeTime(64<<10); got != pcie {
		t.Fatalf("copy from the view charged %v, want %v", got, pcie)
	}
	stream, _ := ctx.StreamCreate()
	done, err := ctx.CopyToDeviceAsyncAt(ptr+4096, view, stream, clk.Now())
	if err != nil || done != 2*dev.PCIeTime(64<<10) {
		t.Fatalf("booked copy from the view completes at %v (%v)", done, err)
	}
	if got, _ := ctx.CopyToHost(ptr+4096, 64<<10); !bytes.Equal(got, want) {
		t.Fatal("bytes written through the view are not what the device holds")
	}
	sent, err := ctx.HostView(ptr+4096, 64<<10)
	if err != nil || &sent[0] != &view[0] {
		t.Fatalf("HostView is not the region: %v", err)
	}
	if _, err := ctx.Region(ptr, 1<<20+1); !errors.Is(err, ErrInvalidDevPtr) {
		t.Fatalf("overrunning view: %v", err)
	}
	if _, err := ctx.Region(0, 1); !errors.Is(err, ErrInvalidDevPtr) {
		t.Fatalf("null view: %v", err)
	}
}
