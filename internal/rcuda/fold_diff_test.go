package rcuda

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"rcuda/internal/calib"
	"rcuda/internal/cudart"
	"rcuda/internal/gpu"
	"rcuda/internal/kernels"
	"rcuda/internal/netsim"
	"rcuda/internal/protocol"
	"rcuda/internal/vclock"
)

// The fold-equivalence differential test: seeded random programs of
// batchable calls closed by a synchronization or completion query, run on
// the local runtime, on a remote client that batches — where the closing
// call rides the frame it flushes — and on one that does not. Every call
// must answer the same cudaError_t on all three, up to CUDA's asynchronous
// error model on the batching client (a batched call answers success and its
// failure surfaces at the closing call), and device memory must end the
// same.

// foldRuntime is what a program calls.
type foldRuntime interface {
	cudart.AsyncRuntime
	Memset(ptr cudart.DevicePtr, value byte, size uint32) error
}

const (
	foldBufBytes = 256 // one 8x8 float32 matrix
	foldLive     = 3   // buffers 0-2 are live; 3 was freed; 4 is a guess
	foldPtrs     = 5
)

// foldCall is one call of a program. Handles are indices resolved per
// runtime: buf into the pointer table, stream into {default, created,
// invalid}, event into {created, created, invalid}.
type foldCall struct {
	op            protocol.Op
	buf, a, b     int
	m             uint32
	kernel        string
	value         byte
	size          uint32
	data          []byte
	stream, event int
}

// foldProgram sets up the same state on any runtime and then makes its
// calls: the batchable ones, the closing one, and a read-back of every live
// buffer.
type foldProgram struct {
	init   [foldLive][]byte
	calls  []foldCall
	maxOps int // the batching client's frame budget
}

func floatBytes(rng *rand.Rand, n int) []byte {
	f := make([]float32, n/4)
	for i := range f {
		f[i] = rng.Float32()*2 - 1
	}
	return cudart.Float32Bytes(f)
}

func genFoldProgram(seed int64) foldProgram {
	rng := rand.New(rand.NewSource(seed))
	var p foldProgram
	for i := range p.init {
		p.init[i] = floatBytes(rng, foldBufBytes)
	}
	p.maxOps = []int{0, 2, 3}[rng.Intn(3)]
	// Half the programs draw an invalid handle for one in eight handles
	// and launch a kernel that fails for one in four launches.
	dirty := rng.Intn(2) == 0
	pick := func(valid, invalid int) int {
		if dirty && rng.Intn(8) == 0 {
			return invalid
		}
		return rng.Intn(valid)
	}
	buf := func() int { return pick(foldLive, foldLive+rng.Intn(2)) }
	for n := 1 + rng.Intn(8); n > 0; n-- {
		c := foldCall{stream: pick(2, 2), event: pick(2, 2), buf: buf()}
		switch rng.Intn(4) {
		case 0:
			c.op, c.value, c.size = protocol.OpMemset, byte(rng.Intn(256)), uint32(1+rng.Intn(foldBufBytes))
		case 1:
			c.op, c.data = protocol.OpMemcpyToDeviceAsync, floatBytes(rng, 4*(1+rng.Intn(foldBufBytes/4)))
		case 2:
			c.op, c.kernel, c.m, c.a, c.b = protocol.OpLaunch, kernels.SgemmKernel, 8, buf(), buf()
			switch {
			case !dirty:
			case rng.Intn(8) == 0:
				c.kernel = "no-such-kernel"
			case rng.Intn(8) == 0:
				c.m = 16 // operands larger than their buffers
			}
		default:
			c.op = protocol.OpEventRecord
		}
		p.calls = append(p.calls, c)
	}
	closing := []protocol.Op{protocol.OpDeviceSynchronize, protocol.OpStreamSynchronize,
		protocol.OpEventSynchronize, protocol.OpStreamQuery, protocol.OpEventQuery}[rng.Intn(5)]
	p.calls = append(p.calls, foldCall{op: closing, stream: 1 + pick(1, 1), event: pick(2, 2)})
	for i := 0; i < foldLive; i++ {
		p.calls = append(p.calls, foldCall{op: protocol.OpMemcpyToHost, buf: i})
	}
	return p
}

// run sets the program's state up on rt, makes its calls and returns each
// call's code, with the bytes the read-backs returned.
func (p foldProgram) run(rt foldRuntime) (codes []cudart.Error, mem []byte, err error) {
	var ptrs [foldPtrs]cudart.DevicePtr
	for i := 0; i <= foldLive; i++ {
		if ptrs[i], err = rt.Malloc(foldBufBytes); err != nil {
			return nil, nil, err
		}
	}
	if err := rt.Free(ptrs[foldLive]); err != nil {
		return nil, nil, err
	}
	ptrs[foldLive+1] = ptrs[0] + 1<<20
	for i, b := range p.init {
		if err := rt.MemcpyToDevice(ptrs[i], b); err != nil {
			return nil, nil, err
		}
	}
	streams := [3]cudart.Stream{0, 0, 99}
	events := [3]cudart.Event{0, 0, 77}
	if streams[1], err = rt.StreamCreate(); err != nil {
		return nil, nil, err
	}
	for i := 0; i < 2; i++ {
		if events[i], err = rt.EventCreate(); err != nil {
			return nil, nil, err
		}
	}
	for _, c := range p.calls {
		s, e := streams[c.stream], events[c.event]
		var err error
		switch c.op {
		case protocol.OpMemset:
			err = rt.Memset(ptrs[c.buf], c.value, c.size)
		case protocol.OpMemcpyToDeviceAsync:
			err = rt.MemcpyToDeviceAsync(ptrs[c.buf], c.data, s)
		case protocol.OpLaunch:
			err = rt.LaunchAsync(c.kernel, cudart.Dim3{X: 1, Y: 1}, cudart.Dim3{X: 8, Y: 8, Z: 1}, 0,
				gpu.PackParams(uint32(ptrs[c.a]), uint32(ptrs[c.b]), uint32(ptrs[c.buf]), c.m), s)
		case protocol.OpEventRecord:
			err = rt.EventRecord(e, s)
		case protocol.OpDeviceSynchronize:
			err = rt.DeviceSynchronize()
		case protocol.OpStreamSynchronize:
			err = rt.StreamSynchronize(s)
		case protocol.OpEventSynchronize:
			err = rt.EventSynchronize(e)
		case protocol.OpStreamQuery:
			err = rt.StreamQuery(s)
		case protocol.OpEventQuery:
			err = rt.EventQuery(e)
		case protocol.OpMemcpyToHost:
			dst := make([]byte, foldBufBytes)
			err = rt.MemcpyToHost(dst, ptrs[c.buf])
			mem = append(mem, dst...)
		}
		var ce cudart.Error
		if err != nil && !errors.As(err, &ce) {
			return nil, nil, fmt.Errorf("%v: %w", c.op, err)
		}
		codes = append(codes, ce)
	}
	return codes, mem, nil
}

// deferred is what a batching client answers where the local runtime
// answered want: success at every batched call, and at the closing call
// the first batched failure if there is one, its own answer otherwise.
func (p foldProgram) deferred(want []cudart.Error) []cudart.Error {
	got := append([]cudart.Error(nil), want...)
	closing := len(p.calls) - foldLive - 1
	first := cudart.Success
	for i := range got[:closing] {
		if first == cudart.Success {
			first = got[i]
		}
		got[i] = cudart.Success
	}
	if first != cudart.Success {
		got[closing] = first
	}
	return got
}

// simDevices makes n devices, each on a virtual clock of its own.
func simDevices(n int) []*gpu.Device {
	devs := make([]*gpu.Device, n)
	for i := range devs {
		devs[i] = gpu.New(gpu.Config{Clock: vclock.NewSim()})
	}
	return devs
}

// remoteFold opens a client on a fresh daemon over a simulated link. The
// link charges a clock of its own, so the device's clock moves only with its
// own work, as the local runtime's does.
func remoteFold(t *testing.T, img []byte, opts ...ClientOption) (*Client, func()) {
	t.Helper()
	return remoteOn(t, NewServer(simDevices(1)[0]), img, opts...)
}

// remoteOn is remoteFold on a daemon of the caller's making.
func remoteOn(t *testing.T, srv *Server, img []byte, opts ...ClientOption) (*Client, func()) {
	t.Helper()
	return openOn(t, NewSimDaemon(srv, netsim.GigaE(), vclock.NewSim(), nil), img, opts...)
}

func TestFoldMatchesLocalAndUnbatched(t *testing.T) {
	mod, err := kernels.ModuleFor(calib.MM)
	if err != nil {
		t.Fatal(err)
	}
	img, err := mod.Binary()
	if err != nil {
		t.Fatal(err)
	}
	// The shapes the fold rules are about must each come up: a closing call
	// that answers not ready or fails on its own, one an earlier failure
	// keeps from running although it would have failed differently, and
	// frames the budget splits.
	var notReady, ownFailure, masked, split int
	for seed := int64(1); seed <= 500; seed++ {
		p := genFoldProgram(seed)
		local, err := cudart.OpenLocal(gpu.New(gpu.Config{Clock: vclock.NewSim()}), mod, cudart.Preinitialized())
		if err != nil {
			t.Fatal(err)
		}
		want, wantMem, err := p.run(local)
		_ = local.Close()
		if err != nil {
			t.Fatalf("seed %d local: %v", seed, err)
		}

		plain, closePlain := remoteFold(t, img)
		got, mem, err := p.run(plain)
		closePlain()
		if err != nil {
			t.Fatalf("seed %d unbatched: %v", seed, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) || !bytes.Equal(mem, wantMem) {
			t.Fatalf("seed %d: unbatched client answered %v, local %v (memory equal: %v)", seed, got, want, bytes.Equal(mem, wantMem))
		}

		batched, closeBatched := remoteFold(t, img, WithBatching(p.maxOps, 0))
		got, mem, err = p.run(batched)
		closeBatched()
		if err != nil {
			t.Fatalf("seed %d batched: %v", seed, err)
		}
		if exp := p.deferred(want); fmt.Sprint(got) != fmt.Sprint(exp) || !bytes.Equal(mem, wantMem) {
			t.Fatalf("seed %d (frame budget %d): batching client answered %v, want %v from local %v (memory equal: %v)",
				seed, p.maxOps, got, exp, want, bytes.Equal(mem, wantMem))
		}

		closing := len(p.calls) - foldLive - 1
		switch first := p.deferred(want)[closing]; {
		case first != want[closing]:
			if want[closing] != cudart.Success {
				masked++
			}
		case want[closing] == cudart.ErrorNotReady:
			notReady++
		case want[closing] != cudart.Success:
			ownFailure++
		}
		if p.maxOps > 0 && closing > p.maxOps {
			split++
		}
	}
	t.Logf("closing call not ready %d, failing itself %d, failing but kept from running by an earlier failure %d; frames split %d",
		notReady, ownFailure, masked, split)
	if notReady == 0 || ownFailure == 0 || masked == 0 || split == 0 {
		t.Fatal("the generator no longer covers every fold rule")
	}
}
