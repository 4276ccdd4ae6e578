package gpu

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Kernel is one device function. Run performs the actual computation on the
// host-backed device memory (so results are numerically real and testable);
// Cost reports the modeled device execution time by which the simulation
// clock advances (so reported performance follows the calibrated hardware
// profile rather than the Go implementation's speed).
type Kernel struct {
	Name string
	Run  func(ec *ExecContext) error
	Cost func(ec *ExecContext) time.Duration
}

// Module is a loadable GPU module: a named set of kernels plus an opaque
// binary image whose size is what travels in the initialization message
// (21,486 bytes for the paper's MM module, 7,852 for FFT).
type Module struct {
	Name    string
	Kernels []*Kernel
	// BinarySize is the size of the module image in bytes.
	BinarySize int
}

// moduleMagic prefixes every synthesized module image.
var moduleMagic = []byte("RCUDAMOD")

// Binary synthesizes the module's wire image: magic, a length-prefixed
// module name (how the server resolves the module on load), and padding up
// to BinarySize, standing in for the kernel code and statically allocated
// variables of a real .cubin.
func (m *Module) Binary() ([]byte, error) {
	need := len(moduleMagic) + 4 + len(m.Name)
	if m.BinarySize < need {
		return nil, fmt.Errorf("gpu: module %q BinarySize %d below header size %d",
			m.Name, m.BinarySize, need)
	}
	img := make([]byte, 0, m.BinarySize)
	img = append(img, moduleMagic...)
	img = binary.LittleEndian.AppendUint32(img, uint32(len(m.Name)))
	img = append(img, m.Name...)
	return append(img, make([]byte, m.BinarySize-need)...), nil
}

// ErrUnknownModule is returned when a module image cannot be resolved.
var ErrUnknownModule = errors.New("gpu: unknown module image")

// ModuleNameFromBinary extracts the module name embedded in an image.
func ModuleNameFromBinary(img []byte) (string, error) {
	if len(img) < len(moduleMagic)+4 || string(img[:len(moduleMagic)]) != string(moduleMagic) {
		return "", ErrUnknownModule
	}
	n := int(binary.LittleEndian.Uint32(img[len(moduleMagic):]))
	if len(img) < len(moduleMagic)+4+n {
		return "", ErrUnknownModule
	}
	return string(img[len(moduleMagic)+4 : len(moduleMagic)+4+n]), nil
}

// registry is the global module registry, populated by kernel providers
// (package kernels) from init functions, in the manner of image format or
// database/sql driver registration.
var registry = struct {
	sync.RWMutex
	mods map[string]*Module
}{mods: make(map[string]*Module)}

// RegisterModule makes a module loadable by name. It panics on duplicate
// registration, which indicates conflicting providers, and on a module that
// has no image (a BinarySize below its own header).
func RegisterModule(m *Module) {
	if _, err := m.Binary(); err != nil {
		panic(err.Error())
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.mods[m.Name]; dup {
		panic(fmt.Sprintf("gpu: duplicate module registration %q", m.Name))
	}
	registry.mods[m.Name] = m
}

// LookupModule returns a registered module by name.
func LookupModule(name string) (*Module, error) {
	registry.RLock()
	defer registry.RUnlock()
	m, ok := registry.mods[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownModule, name)
	}
	return m, nil
}

// RegisteredModules lists registered module names, sorted.
func RegisteredModules() []string {
	registry.RLock()
	defer registry.RUnlock()
	names := make([]string, 0, len(registry.mods))
	for n := range registry.mods {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ResolveModule resolves a module image received over the wire to its
// registered module.
func ResolveModule(img []byte) (*Module, error) {
	name, err := ModuleNameFromBinary(img)
	if err != nil {
		return nil, err
	}
	m, err := LookupModule(name)
	if err != nil {
		return nil, err
	}
	if len(img) != m.BinarySize {
		return nil, fmt.Errorf("gpu: module %q image is %d bytes, registered size %d",
			name, len(img), m.BinarySize)
	}
	return m, nil
}

// ParamReader decodes a kernel's packed little-endian parameter block, the
// way device code reads its parameter stack.
type ParamReader struct {
	buf []byte
	off int
}

// U32 reads the next 32-bit parameter (also used for device pointers).
func (r *ParamReader) U32() (uint32, error) {
	if r.off+4 > len(r.buf) {
		return 0, fmt.Errorf("gpu: parameter block exhausted at offset %d", r.off)
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

// PackParams packs 32-bit parameters the way the client marshals them.
func PackParams(vals ...uint32) []byte {
	out := make([]byte, 0, 4*len(vals))
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint32(out, v)
	}
	return out
}
