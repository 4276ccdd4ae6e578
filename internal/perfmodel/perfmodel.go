// Package perfmodel implements the paper's estimation model (Sections V
// and VI).
//
// The method: the transfer times of all remote calls are negligible except
// the bulk cudaMemcpy payloads, so subtracting the payload transfer times
// (per-copy time × 3 for MM, × 2 for FFT) from a measured execution on a
// source network yields a network-independent *fixed time* — computation,
// middleware management, data generation, PCIe. Adding the payload times of
// any target network to that fixed time predicts the execution there.
// Cross-validating the two testbed networks against each other (Table IV)
// bounds the error; applying the models to five HPC interconnects yields
// the projections of Table VI.
//
// Every session shape's wire traffic is written down once, as a []Msg
// built by Schedule (a case study), PipelinedSchedule (the pipelined FFT)
// or InferenceSchedule (the inference loop); Table II, the analytic
// workloads, the contention simulator and the inference model all walk
// those lists, and the workload package's TestSchedulesMatchTheWire holds
// each to the exchanges a functional run records.
package perfmodel

import (
	"fmt"
	"math"
	"sort"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/netsim"
	"rcuda/internal/stats"
)

// TransferTime returns the estimated time of a single bulk memory copy of
// the case study at the given size over a network — one cell of Table III
// (testbed networks) or Table V (target networks): payload ÷ effective
// one-way bandwidth.
func TransferTime(link *netsim.Link, cs calib.CaseStudy, size int) time.Duration {
	return link.PayloadTime(calib.CopyBytes(cs, size))
}

// TotalTransferTime returns the payload time of all bulk copies of one
// execution: ×3 for MM (two inputs, one output), ×2 for FFT.
func TotalTransferTime(link *netsim.Link, cs calib.CaseStudy, size int) time.Duration {
	return time.Duration(calib.CopyCount(cs)) * TransferTime(link, cs, size)
}

// Model predicts execution times of one case study from measurements taken
// on a single source network.
type Model struct {
	CS     calib.CaseStudy
	Source *netsim.Link
	// fixed maps problem size to the extracted network-independent time.
	fixed map[int]time.Duration
}

// Build derives a model from measured execution times on the source
// network, one per problem size.
func Build(cs calib.CaseStudy, source *netsim.Link, measured map[int]time.Duration) (*Model, error) {
	if len(measured) == 0 {
		return nil, fmt.Errorf("perfmodel: no measurements for %v on %s", cs, source.Name())
	}
	m := &Model{CS: cs, Source: source, fixed: make(map[int]time.Duration, len(measured))}
	for size, t := range measured {
		fixed := t - TotalTransferTime(source, cs, size)
		if fixed <= 0 {
			return nil, fmt.Errorf("perfmodel: %v size %d measured %v is below its own transfer time on %s",
				cs, size, t, source.Name())
		}
		m.fixed[size] = fixed
	}
	return m, nil
}

// Sizes returns the problem sizes the model covers, ascending.
func (m *Model) Sizes() []int {
	out := make([]int, 0, len(m.fixed))
	for s := range m.fixed {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// Fixed returns the extracted fixed time for a size the model was built on.
func (m *Model) Fixed(size int) (time.Duration, error) {
	f, ok := m.fixed[size]
	if !ok {
		return 0, fmt.Errorf("perfmodel: size %d not measured on %s", size, m.Source.Name())
	}
	return f, nil
}

// Estimate predicts the execution time on a target network: fixed time plus
// the target's payload transfer time.
func (m *Model) Estimate(target *netsim.Link, size int) (time.Duration, error) {
	f, err := m.Fixed(size)
	if err != nil {
		return 0, err
	}
	return f + TotalTransferTime(target, m.CS, size), nil
}

// CrossRow is one row of a Table IV half: the model built on the source
// network predicts the execution on the validation network, and the signed
// relative error compares that against the validation measurement.
type CrossRow struct {
	Size            int
	MeasuredSource  time.Duration // measured on the model's source network
	Fixed           time.Duration // extracted fixed time
	Estimated       time.Duration // prediction for the validation network
	MeasuredTarget  time.Duration // measured on the validation network
	RelativeErrorPc float64       // (estimated-measured)/measured × 100
}

// CrossValidate builds a model from source-network measurements and
// validates it against measurements of the same sizes on another network,
// reproducing one half of Table IV.
func CrossValidate(cs calib.CaseStudy, source, target *netsim.Link,
	sourceMeasured, targetMeasured map[int]time.Duration) ([]CrossRow, error) {

	model, err := Build(cs, source, sourceMeasured)
	if err != nil {
		return nil, err
	}
	rows := make([]CrossRow, 0, len(sourceMeasured))
	for _, size := range model.Sizes() {
		got, ok := targetMeasured[size]
		if !ok {
			return nil, fmt.Errorf("perfmodel: size %d missing from %s measurements", size, target.Name())
		}
		est, err := model.Estimate(target, size)
		if err != nil {
			return nil, err
		}
		fixed, _ := model.Fixed(size)
		rows = append(rows, CrossRow{
			Size:            size,
			MeasuredSource:  sourceMeasured[size],
			Fixed:           fixed,
			Estimated:       est,
			MeasuredTarget:  got,
			RelativeErrorPc: stats.RelativeError(est.Seconds(), got.Seconds()) * 100,
		})
	}
	return rows, nil
}

// Eligibility is the paper's closing criterion: a problem is worth
// offloading to a remote GPU on the given network if the predicted remote
// time beats the local CPU time. It also says whether the problem is
// GPU-eligible at all (local GPU beats local CPU), since "if the problem is
// well suited to be accelerated in a local GPU, then the overhead of using
// a remote GPU will be worth the cost reduction".
type Eligibility struct {
	CPU       time.Duration
	LocalGPU  time.Duration
	Remote    time.Duration
	GPUWorth  bool // local GPU beats CPU
	RemoteOK  bool // remote GPU beats CPU
	SpeedupPc float64
}

// SweepPoint is one sample of a bandwidth sensitivity sweep.
type SweepPoint struct {
	BandwidthMBps float64
	Remote        time.Duration
	// CPU is the local-CPU baseline at the swept size, constant across
	// the sweep but repeated for convenient plotting.
	CPU time.Duration
}

// BandwidthSweep evaluates the remote execution time of a measured problem
// size over a continuous range of interconnect bandwidths — a generalized
// Figure 5/6 with bandwidth on the x axis instead of discrete networks,
// showing exactly where an interconnect becomes fast enough. Bandwidths
// are sampled geometrically between lo and hi MiB/s.
func BandwidthSweep(m *Model, size int, loMBps, hiMBps float64, points int) ([]SweepPoint, error) {
	if points < 2 {
		return nil, fmt.Errorf("perfmodel: need at least 2 sweep points, got %d", points)
	}
	if loMBps <= 0 || hiMBps <= loMBps {
		return nil, fmt.Errorf("perfmodel: bad bandwidth range [%g, %g]", loMBps, hiMBps)
	}
	if _, err := m.Fixed(size); err != nil {
		return nil, err
	}
	cpu := calib.CPUTime(m.CS, size)
	ratio := math.Pow(hiMBps/loMBps, 1/float64(points-1))
	out := make([]SweepPoint, 0, points)
	bw := loMBps
	for i := 0; i < points; i++ {
		link, err := netsim.Custom("sweep", bw)
		if err != nil {
			return nil, err
		}
		est, err := m.Estimate(link, size)
		if err != nil {
			return nil, err
		}
		out = append(out, SweepPoint{BandwidthMBps: bw, Remote: est, CPU: cpu})
		bw *= ratio
	}
	return out, nil
}

// CrossoverSize returns the smallest of the model's problem sizes at which
// the remote GPU beats the local CPU on the target network, and whether one
// exists. The left-hand plots of Figures 5 and 6 show exactly this
// crossover: below it the communication overhead eats the GPU's advantage.
func CrossoverSize(m *Model, target *netsim.Link) (int, bool) {
	for _, size := range m.Sizes() {
		est, err := m.Estimate(target, size)
		if err != nil {
			continue
		}
		if est < calib.CPUTime(m.CS, size) {
			return size, true
		}
	}
	return 0, false
}

// MinimumBandwidth returns the smallest effective one-way bandwidth (MiB/s)
// at which the remote GPU still beats the local CPU for the given problem
// size, found by bisection over bandwidth-only network models. It reports
// ok=false when even an infinitely fast network would lose (the problem is
// not GPU-eligible).
func MinimumBandwidth(m *Model, size int) (float64, bool) {
	fixed, err := m.Fixed(size)
	if err != nil {
		return 0, false
	}
	cpu := calib.CPUTime(m.CS, size)
	if fixed >= cpu {
		return 0, false // even zero transfer time loses
	}
	// transfer budget = cpu - fixed; bandwidth = bytes / budget.
	budget := (cpu - fixed).Seconds()
	bytes := float64(calib.CopyCount(m.CS)) * float64(calib.CopyBytes(m.CS, size))
	return bytes / budget / (1 << 20), true
}

// Eligible evaluates the remote-offload decision using a model estimate and
// the calibrated local baselines.
func Eligible(m *Model, target *netsim.Link, size int) (Eligibility, error) {
	remote, err := m.Estimate(target, size)
	if err != nil {
		return Eligibility{}, err
	}
	cpu := calib.CPUTime(m.CS, size)
	gpuLocal := calib.LocalInit(m.CS) + calib.DataGenTime(m.CS, size) +
		time.Duration(calib.CopyCount(m.CS))*calib.PCIeTime(m.CS, size) +
		calib.KernelTime(m.CS, size) + calib.Mgmt
	e := Eligibility{
		CPU:      cpu,
		LocalGPU: gpuLocal,
		Remote:   remote,
		GPUWorth: gpuLocal < cpu,
		RemoteOK: remote < cpu,
	}
	if remote > 0 {
		e.SpeedupPc = (cpu.Seconds()/remote.Seconds() - 1) * 100
	}
	return e, nil
}
