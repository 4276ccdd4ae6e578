// Package calib embeds the paper's published measurements and derives from
// them the component timing models that drive the simulation.
//
// The reproduction has no Tesla C1060, no MKL/FFTW install from 2010, and
// no physical GigaE/40GI testbed, so — per the substitution methodology in
// DESIGN.md — the hardware-dependent inputs are calibrated against the
// numbers the paper itself publishes (Tables IV and VI). Everything above
// this package is real code: the middleware executes its actual protocol,
// the models re-derive fixed times with linear regressions, and the
// cross-validation recomputes its error rates; only the per-size leaf costs
// (kernel time, PCIe, host marshaling, data generation) are calibration
// data rather than silicon.
//
// Decomposition. The paper defines the fixed time of a run as everything
// except the network payload transfers: CPU and GPU computation, middleware
// management, random data generation, and PCIe transfers. Using the
// 40GI-model fixed column as ground truth (the 40 Gbps wire is fast enough
// that its measured payload times match the bandwidth model, so its fixed
// column is the cleanest estimate of the network-independent cost), the
// components are:
//
//	kernel(size)  = gpuLocal(size) − init − pcie(size) − datagen(size) − mgmt
//	marshal(size) = fixed40GI(size) − gpuLocal(size) + init
//
// which by construction recompose to the published local-GPU and fixed
// times. init is the CUDA context creation delay for the MM study; the
// paper's FFT local-GPU times are warm-context measurements (they are far
// smaller than any cold start), so init is zero for FFT.
package calib

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"rcuda/internal/stats"
)

// CaseStudy identifies one of the paper's two case studies.
type CaseStudy int

// The two case studies of Section IV-B.
const (
	// MM is the single-precision matrix-matrix product C = A·B with
	// square matrices of dimension m (Volkov's SGEMM on the GPU, MKL on
	// the CPU).
	MM CaseStudy = iota
	// FFT is the batched 512-point single-precision complex 1-D FFT
	// (Volkov's FFT on the GPU, FFTW on the CPU); the size parameter is
	// the batch count n.
	FFT
)

// String implements fmt.Stringer.
func (cs CaseStudy) String() string {
	switch cs {
	case MM:
		return "MM"
	case FFT:
		return "FFT"
	default:
		return fmt.Sprintf("CaseStudy(%d)", int(cs))
	}
}

// Problem sizes evaluated in the paper.
var (
	mmSizes  = []int{4096, 6144, 8192, 10240, 12288, 14336, 16384, 18432}
	fftSizes = []int{2048, 4096, 6144, 8192, 10240, 12288, 16384}
)

// Sizes returns the paper's problem sizes for a case study: matrix
// dimensions for MM, batch counts for FFT.
func Sizes(cs CaseStudy) []int {
	switch cs {
	case MM:
		return append([]int(nil), mmSizes...)
	default:
		return append([]int(nil), fftSizes...)
	}
}

// CopyBytes returns the payload of one cudaMemcpy: 4m² bytes for MM
// (single-precision m×m matrices), 4096n for FFT (n transforms of 512
// 8-byte complex points).
func CopyBytes(cs CaseStudy, size int) int64 {
	switch cs {
	case MM:
		return 4 * int64(size) * int64(size)
	default:
		return 4096 * int64(size)
	}
}

// CopyCount returns the number of bulk memcpys per execution: 3 for MM
// (A and B in, C out), 2 for FFT (one per direction). This is the
// multiplier applied to Table III per-copy times.
func CopyCount(cs CaseStudy) int {
	if cs == MM {
		return 3
	}
	return 2
}

// InputCopies returns how many of the copies carry input data.
func InputCopies(cs CaseStudy) int {
	if cs == MM {
		return 2
	}
	return 1
}

// ModuleBytes returns the size of the case study's GPU module as reported
// in Section IV-B: 21,486 bytes for MM and 7,852 for FFT.
func ModuleBytes(cs CaseStudy) int {
	if cs == MM {
		return 21486
	}
	return 7852
}

// Testbed constants. The simulated device (package gpu) charges its
// transfers and its context creation at these prices too.
const (
	// PCIeMBps is the measured effective host-device bandwidth (MiB/s).
	PCIeMBps = 5743
	// ContextInit is the CUDA environment initialization delay hidden by
	// the rCUDA daemon's pre-initialized context.
	ContextInit = 800 * time.Millisecond
	// DataGenMBps models the host generating random input data (MiB/s).
	DataGenMBps = 1024
	// Mgmt is the size-independent middleware management overhead per
	// execution.
	Mgmt = 5 * time.Millisecond
)

// --- Published measurements (Tables IV and VI) -----------------------------

// Published per-size measured execution times. MM values are seconds, FFT
// values milliseconds, exactly as printed in the paper; accessors convert
// to time.Duration.
var (
	mmCPU   = []float64{2.08, 5.66, 11.99, 21.52, 35.45, 54.00, 78.87, 109.12}
	mmGPU   = []float64{2.40, 4.58, 8.12, 13.30, 20.37, 29.64, 41.43, 55.86}
	mmGigaE = []float64{3.64, 8.47, 15.60, 25.47, 38.39, 54.96, 74.13, 97.65}
	// Table IV's measured 40GI column. (Table VI's "40GI" column instead
	// repeats Table IV's GigaE fixed times — an apparent typesetting slip
	// in the original; Table IV is the authoritative cross-validation.)
	mm40GI       = []float64{2.03, 4.85, 9.34, 15.74, 24.42, 35.49, 49.93, 67.05}
	mmFixedGigaE = []float64{1.93, 4.62, 8.77, 14.79, 23.02, 34.03, 46.80, 63.06}
	mmFixed40GI  = []float64{1.89, 4.54, 8.78, 14.86, 23.15, 33.77, 47.68, 64.21}

	fftCPU        = []float64{41.67, 74.67, 115.67, 150.33, 187.33, 224.67, 299.00}
	fftGPU        = []float64{51.00, 102.33, 153.33, 201.67, 253.33, 304.67, 403.00}
	fftGigaE      = []float64{354.33, 555.67, 761.00, 964.33, 1167.67, 1371.33, 1782.00}
	fft40GI       = []float64{167.00, 226.00, 306.33, 379.67, 458.00, 537.67, 696.67}
	fftFixedGigaE = []float64{211.98, 270.97, 333.95, 394.94, 455.92, 517.24, 643.21}
	fftFixed40GI  = []float64{155.30, 202.59, 271.22, 332.85, 399.48, 467.45, 603.04}
)

// unit returns the duration of one printed time unit for the case study.
func unit(cs CaseStudy) time.Duration {
	if cs == MM {
		return time.Second
	}
	return time.Millisecond
}

// lookup finds the index of size in the case study's size list.
func lookup(cs CaseStudy, size int) (int, bool) {
	for i, s := range Sizes(cs) {
		if s == size {
			return i, true
		}
	}
	return 0, false
}

func published(cs CaseStudy, table []float64, size int) (time.Duration, bool) {
	i, ok := lookup(cs, size)
	if !ok {
		return 0, false
	}
	return time.Duration(table[i] * float64(unit(cs))), true
}

// PaperCPU returns the published local-CPU (8-core MKL/FFTW) time.
func PaperCPU(cs CaseStudy, size int) (time.Duration, bool) {
	return published(cs, pick(cs, mmCPU, fftCPU), size)
}

// PaperGPU returns the published local-GPU time.
func PaperGPU(cs CaseStudy, size int) (time.Duration, bool) {
	return published(cs, pick(cs, mmGPU, fftGPU), size)
}

// PaperMeasured returns the published remote execution time on a testbed
// network ("GigaE" or "40GI").
func PaperMeasured(cs CaseStudy, network string, size int) (time.Duration, bool) {
	switch network {
	case "GigaE":
		return published(cs, pick(cs, mmGigaE, fftGigaE), size)
	case "40GI":
		return published(cs, pick(cs, mm40GI, fft40GI), size)
	default:
		return 0, false
	}
}

// PaperFixed returns the published fixed time extracted under the given
// source-network model ("GigaE" or "40GI").
func PaperFixed(cs CaseStudy, model string, size int) (time.Duration, bool) {
	switch model {
	case "GigaE":
		return published(cs, pick(cs, mmFixedGigaE, fftFixedGigaE), size)
	case "40GI":
		return published(cs, pick(cs, mmFixed40GI, fftFixed40GI), size)
	default:
		return 0, false
	}
}

func pick(cs CaseStudy, mm, fft []float64) []float64 {
	if cs == MM {
		return mm
	}
	return fft
}

// --- Derived component models ----------------------------------------------

// scaledTable interpolates a per-size table linearly between anchors and
// extrapolates outside the anchor range by scaling the edge anchor with a
// work-ratio power law (e.g. m³ for GEMM compute, m² for data volumes), so
// small demo sizes get sane positive costs.
//
// A table remembers what it evaluated at sizes 1 through memoSizes, so a
// launch that repeats a size (every inference layer is a 16³ product)
// pays a load, not a math.Pow. memo[size-1] is eval(size)+1 once known and
// 0 before; the evaluation is a pure function of size, so goroutines that
// race to fill a slot store the same value, and no lock is needed. The
// memo is allocated by the table's first evaluation, so a process that
// never evaluates a table does not carry its memo.
type scaledTable struct {
	curve    *stats.Curve
	loX, hiX float64
	loY, hiY float64
	exp      float64
	memo     atomic.Pointer[[memoSizes]atomic.Int64]
}

// memoSizes is the largest size a table remembers: every size a simulated
// launch uses on a hot path, and the paper's smaller problem sizes.
const memoSizes = 8192

func newScaledTable(sizes []int, ms []float64, exp float64) *scaledTable {
	pts := make([]stats.Point, len(sizes))
	for i, s := range sizes {
		pts[i] = stats.Point{X: float64(s), Y: ms[i]}
	}
	c, err := stats.NewCurve(pts)
	if err != nil {
		panic(fmt.Sprintf("calib: bad table: %v", err))
	}
	return &scaledTable{
		curve: c,
		loX:   pts[0].X, hiX: pts[len(pts)-1].X,
		loY: pts[0].Y, hiY: pts[len(pts)-1].Y,
		exp: exp,
	}
}

// evalMS returns the modeled milliseconds at the given size.
func (t *scaledTable) evalMS(size float64) float64 {
	switch {
	case size < t.loX:
		return t.loY * math.Pow(size/t.loX, t.exp)
	case size > t.hiX:
		return t.hiY * math.Pow(size/t.hiX, t.exp)
	default:
		return t.curve.Eval(size)
	}
}

func (t *scaledTable) eval(size int) time.Duration {
	if size < 1 || size > memoSizes {
		return t.direct(size)
	}
	memo := t.memo.Load()
	if memo == nil {
		t.memo.CompareAndSwap(nil, new([memoSizes]atomic.Int64))
		memo = t.memo.Load()
	}
	slot := &memo[size-1]
	if v := slot.Load(); v != 0 {
		return time.Duration(v - 1)
	}
	d := t.direct(size)
	slot.Store(int64(d) + 1)
	return d
}

// direct evaluates the table at size without consulting the memo.
func (t *scaledTable) direct(size int) time.Duration {
	return time.Duration(t.evalMS(float64(size)) * float64(time.Millisecond))
}

// toMS converts a published column to milliseconds.
func toMS(cs CaseStudy, col []float64) []float64 {
	out := make([]float64, len(col))
	scale := 1.0
	if cs == MM {
		scale = 1e3
	}
	for i, v := range col {
		out[i] = v * scale
	}
	return out
}

// pcieMS returns the PCIe time in ms for n bytes at the measured bandwidth.
func pcieMS(bytes int64) float64 {
	return float64(bytes) / (PCIeMBps * (1 << 20)) * 1e3
}

// PCIeTransfer models one host-device transfer of n bytes at the measured
// bandwidth: the one PCIe price the model, the scheduler's copy prior and
// the simulated device all charge.
func PCIeTransfer(bytes int64) time.Duration {
	return time.Duration(pcieMS(bytes) * float64(time.Millisecond))
}

// totalPCIeMS is the PCIe cost of all bulk copies of one execution.
func totalPCIeMS(cs CaseStudy, size int) float64 {
	return float64(CopyCount(cs)) * pcieMS(CopyBytes(cs, size))
}

// datagenMS is the cost of generating the input data on the host.
func datagenMS(cs CaseStudy, size int) float64 {
	bytes := int64(InputCopies(cs)) * CopyBytes(cs, size)
	return float64(bytes) / (DataGenMBps * (1 << 20)) * 1e3
}

// initMS returns the context initialization cost included in the published
// local-GPU column: the full cold start for MM, zero for FFT (warm-context
// measurements; see the package comment).
func initMS(cs CaseStudy) float64 {
	if cs == MM {
		return float64(ContextInit) / float64(time.Millisecond)
	}
	return 0
}

// The derived tables, indexed by case study.
var cpuTables, kernelTables, marshalTables [FFT + 1]*scaledTable

func init() {
	for _, cs := range []CaseStudy{MM, FFT} {
		sizes := Sizes(cs)
		cpuMS := toMS(cs, pick(cs, mmCPU, fftCPU))
		gpuMS := toMS(cs, pick(cs, mmGPU, fftGPU))
		fixedMS := toMS(cs, pick(cs, mmFixed40GI, fftFixed40GI))
		compExp := 3.0 // GEMM is O(m³)
		volExp := 2.0  // data volumes are O(m²)
		if cs == FFT {
			compExp, volExp = 1.0, 1.0 // both linear in the batch count
		}
		kernelMS := make([]float64, len(sizes))
		marshalMS := make([]float64, len(sizes))
		for i, size := range sizes {
			kernelMS[i] = gpuMS[i] - initMS(cs) - totalPCIeMS(cs, size) -
				datagenMS(cs, size) - float64(Mgmt)/float64(time.Millisecond)
			marshalMS[i] = fixedMS[i] - gpuMS[i] + initMS(cs)
			if kernelMS[i] <= 0 || marshalMS[i] <= 0 {
				panic(fmt.Sprintf("calib: non-positive component at %v size %d: kernel %.2f ms, marshal %.2f ms",
					cs, size, kernelMS[i], marshalMS[i]))
			}
		}
		cpuTables[cs] = newScaledTable(sizes, cpuMS, compExp)
		kernelTables[cs] = newScaledTable(sizes, kernelMS, compExp)
		marshalTables[cs] = newScaledTable(sizes, marshalMS, volExp)
	}
}

// CPUTime models the 8-core CPU execution (MKL or FFTW) at any size.
func CPUTime(cs CaseStudy, size int) time.Duration { return cpuTables[cs].eval(size) }

// KernelTime models the GPU kernel execution at any size.
func KernelTime(cs CaseStudy, size int) time.Duration { return kernelTables[cs].eval(size) }

// MarshalTime models the middleware's host-side marshaling and buffer
// management per remote execution at any size.
func MarshalTime(cs CaseStudy, size int) time.Duration { return marshalTables[cs].eval(size) }

// DataGenTime models generating the random input data on the host.
func DataGenTime(cs CaseStudy, size int) time.Duration {
	return time.Duration(datagenMS(cs, size) * float64(time.Millisecond))
}

// PCIeTime models one host-device transfer of the case study's copy payload.
func PCIeTime(cs CaseStudy, size int) time.Duration {
	return PCIeTransfer(CopyBytes(cs, size))
}

// LocalInit returns the context initialization delay a local (non-rCUDA)
// execution of the case study pays.
func LocalInit(cs CaseStudy) time.Duration {
	return time.Duration(initMS(cs) * float64(time.Millisecond))
}
