package main

import (
	"encoding/binary"
	"fmt"
	"math"

	"rcuda/internal/cudart"
	"rcuda/internal/gpu"
	"rcuda/internal/kernels"
	"rcuda/internal/vclock"
)

// Every input of every workload derives from -seed through the generator
// below; the program under test only ever sees the generated values.

// rng is splitmix64: tiny, fast enough to fill 64 MiB in set-up, and fixed
// here so generated inputs never change under a library update.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	return &rng{s: uint64(seed)*0x9e3779b97f4a7c15 ^ stream*0xbf58476d1ce4e5b9}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// deriveSeed gives an independent non-negative seed for a sub-generator
// (loadgen configs, the reference heap).
func deriveSeed(seed int64, stream uint64) int64 {
	return int64(newRNG(seed, stream).next() >> 1)
}

// fillPattern overwrites buf with the seed's byte pattern.
func fillPattern(buf []byte, seed int64, stream uint64) {
	r := newRNG(seed, stream)
	i := 0
	for ; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], r.next())
	}
	for v := r.next(); i < len(buf); i++ {
		buf[i] = byte(v)
		v >>= 8
	}
}

// matrixBytes returns n float32 values in [-1, 1) in device byte order.
func matrixBytes(r *rng, n int) []byte {
	m := make([]float32, n)
	for i := range m {
		m[i] = float32(r.next()>>40)/float32(1<<23) - 1
	}
	return cudart.Float32Bytes(m)
}

// Inference request shape: the 24-layer 16x16 DNN of
// workload.ExecuteInference, re-issued call by call from the harness so
// the oracle stays out of the timed path.
const (
	inferLayers = 24
	inferDim    = 16
	inferBytes  = 4 * inferDim * inferDim
	inferInputs = 32 // distinct requests cycled through
)

// inferData is the seeded model, the request inputs, and the outputs the
// cudart.Local oracle produced for them.
type inferData struct {
	weights [][]byte
	inputs  [][]byte
	want    [][]byte
}

// inferRuntime is the call surface one inference request uses; both the
// remote client and cudart.Local satisfy it.
type inferRuntime interface {
	cudart.AsyncRuntime
	cudart.DeviceRuntime
}

// inferSession is a model resident on some runtime: weights uploaded,
// activation buffers, stream and event created, launch parameters packed.
type inferSession struct {
	rt     inferRuntime
	ptrs   []cudart.DevicePtr
	act    [2]cudart.DevicePtr
	stream cudart.Stream
	event  cudart.Event
	params [inferLayers][]byte
	out    []byte
}

func openInferSession(rt inferRuntime, weights [][]byte) (*inferSession, error) {
	s := &inferSession{rt: rt, out: make([]byte, inferBytes)}
	for _, w := range weights {
		p, err := rt.Malloc(inferBytes)
		if err != nil {
			return nil, err
		}
		s.ptrs = append(s.ptrs, p)
		if err := rt.MemcpyToDevice(p, w); err != nil {
			return nil, err
		}
	}
	for i := range s.act {
		p, err := rt.Malloc(inferBytes)
		if err != nil {
			return nil, err
		}
		s.act[i] = p
	}
	var err error
	if s.stream, err = rt.StreamCreate(); err != nil {
		return nil, err
	}
	if s.event, err = rt.EventCreate(); err != nil {
		return nil, err
	}
	cur, nxt := s.act[0], s.act[1]
	for l := range s.params {
		s.params[l] = gpu.PackParams(uint32(s.ptrs[l]), uint32(cur), uint32(nxt), inferDim)
		cur, nxt = nxt, cur
	}
	return s, nil
}

// request issues one inference request — 1 DeviceProperties, 1 async H2D,
// 24 LaunchAsync, EventRecord/EventSynchronize/EventQuery, 1 D2H — and
// leaves the output in s.out.
func (s *inferSession) request(input []byte) error {
	props, err := s.rt.DeviceProperties()
	if err != nil {
		return err
	}
	if props.Name == "" {
		return fmt.Errorf("device reported no name")
	}
	if err := s.rt.MemcpyToDeviceAsync(s.act[0], input, s.stream); err != nil {
		return err
	}
	for l := range s.params {
		if err := s.rt.LaunchAsync(kernels.SgemmKernel,
			cudart.Dim3{X: 1, Y: 1}, cudart.Dim3{X: inferDim, Y: inferDim}, 0,
			s.params[l], s.stream); err != nil {
			return err
		}
	}
	if err := s.rt.EventRecord(s.event, s.stream); err != nil {
		return err
	}
	if err := s.rt.EventSynchronize(s.event); err != nil {
		return err
	}
	if err := s.rt.EventQuery(s.event); err != nil {
		return err
	}
	// 24 layers ping-pong between the buffers, so the result is in act[0].
	return s.rt.MemcpyToHost(s.out, s.act[inferLayers%2])
}

// close releases everything openInferSession created.
func (s *inferSession) close() error {
	if err := s.rt.EventDestroy(s.event); err != nil {
		return err
	}
	if err := s.rt.StreamDestroy(s.stream); err != nil {
		return err
	}
	for _, p := range append(s.ptrs, s.act[0], s.act[1]) {
		if err := s.rt.Free(p); err != nil {
			return err
		}
	}
	return nil
}

// newInferData generates the model and requests for a seed and computes
// the expected outputs on cudart.Local, the no-middleware runtime.
func newInferData(seed int64, mod *gpu.Module) (*inferData, error) {
	r := newRNG(seed, 0x1f)
	d := &inferData{}
	for l := 0; l < inferLayers; l++ {
		d.weights = append(d.weights, matrixBytes(r, inferDim*inferDim))
	}
	for i := 0; i < inferInputs; i++ {
		d.inputs = append(d.inputs, matrixBytes(r, inferDim*inferDim))
	}
	local, err := openLocal(mod)
	if err != nil {
		return nil, err
	}
	s, err := openInferSession(local, d.weights)
	if err != nil {
		return nil, err
	}
	for _, in := range d.inputs {
		if err := s.request(in); err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		for _, v := range cudart.BytesFloat32(s.out) {
			if math.IsNaN(float64(v)) {
				return nil, fmt.Errorf("oracle produced NaN")
			}
		}
		d.want = append(d.want, append([]byte(nil), s.out...))
	}
	if err := s.close(); err != nil {
		return nil, err
	}
	return d, local.Close()
}

// openLocal opens the local runtime on a fresh Sim-clock device.
func openLocal(mod *gpu.Module) (*cudart.Local, error) {
	dev := gpu.New(gpu.Config{Clock: vclock.NewSim()})
	return cudart.OpenLocal(dev, mod, cudart.Preinitialized())
}
