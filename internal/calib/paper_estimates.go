package calib

import "time"

// This file records the paper's published *estimates* (Table IV's error
// rates and Table VI's projections onto the five HPC networks), so reports
// can print paper-vs-reproduction deltas side by side. Values are in the
// paper's printed units (seconds for MM, milliseconds for FFT).

// Target network order used by the estimate grids, matching Table VI.
var targetNetworks = []string{"10GE", "10GI", "Myr", "F-HT", "A-HT"}

// TargetNetworks returns the Table VI network column order.
func TargetNetworks() []string { return append([]string(nil), targetNetworks...) }

// Table IV: published signed error rates in percent.
var (
	mmErrGigaEModel  = []float64{2.16, 1.76, -0.10, -0.41, -0.54, 0.73, -1.78, -1.72}
	mmErr40GIModel   = []float64{-1.21, -1.01, 0.06, 0.25, 0.35, -0.47, 1.20, 1.18}
	fftErrGigaEModel = []float64{33.95, 30.26, 20.48, 16.35, 12.32, 9.26, 5.77}
	fftErr40GIModel  = []float64{-16.00, -12.31, -8.24, -6.44, -4.83, -3.63, -2.25}
)

// PaperCrossError returns the paper's Table IV signed error rate (percent).
func PaperCrossError(cs CaseStudy, model string, size int) (float64, bool) {
	i, ok := lookup(cs, size)
	if !ok {
		return 0, false
	}
	switch model {
	case "GigaE":
		return pick(cs, mmErrGigaEModel, fftErrGigaEModel)[i], true
	case "40GI":
		return pick(cs, mmErr40GIModel, fftErr40GIModel)[i], true
	default:
		return 0, false
	}
}

// Table VI estimate grids: rows follow Sizes(cs), columns TargetNetworks().
var (
	mmTableVIGigaE = [][]float64{
		{2.13, 2.15, 2.19, 2.07, 2.00},
		{5.07, 5.11, 5.20, 4.92, 4.77},
		{9.56, 9.64, 9.79, 9.30, 9.04},
		{16.03, 16.16, 16.39, 15.63, 15.21},
		{24.80, 24.98, 25.32, 24.22, 23.62},
		{36.46, 36.70, 37.17, 35.66, 34.85},
		{49.96, 50.29, 50.89, 48.93, 47.86},
		{67.06, 67.47, 68.24, 65.75, 64.40},
	}
	mmTableVI40GI = [][]float64{
		{2.09, 2.11, 2.15, 2.02, 1.96},
		{4.98, 5.03, 5.11, 4.84, 4.69},
		{9.57, 9.65, 9.80, 9.31, 9.05},
		{16.10, 16.22, 16.46, 15.69, 15.27},
		{24.93, 25.12, 25.46, 24.35, 23.75},
		{36.20, 36.44, 36.91, 35.40, 34.59},
		{50.85, 51.18, 51.78, 49.81, 48.75},
		{68.22, 68.63, 69.39, 66.90, 65.56},
	}
	fftTableVIGigaE = [][]float64{
		{228.48, 230.17, 233.32, 223.08, 217.53},
		{303.96, 307.33, 313.64, 293.16, 282.06},
		{383.44, 388.50, 397.95, 367.24, 350.60},
		{460.92, 467.67, 480.27, 439.32, 417.13},
		{538.40, 546.83, 562.59, 511.40, 483.66},
		{616.21, 626.33, 645.24, 583.82, 550.53},
		{775.17, 788.66, 813.88, 731.98, 687.59},
	}
	fftTableVI40GI = [][]float64{
		{171.79, 173.48, 176.63, 166.39, 160.84},
		{235.58, 238.96, 245.26, 224.78, 213.69},
		{320.71, 325.77, 335.22, 304.51, 287.87},
		{398.83, 405.58, 418.19, 377.24, 355.04},
		{481.96, 490.39, 506.15, 454.96, 427.22},
		{566.41, 576.54, 595.45, 534.02, 500.73},
		{735.00, 748.49, 773.70, 691.80, 647.42},
	}
)

// PaperTargetEstimate returns the paper's Table VI projection of the case
// study onto a target HPC network under the given source model.
func PaperTargetEstimate(cs CaseStudy, model, network string, size int) (time.Duration, bool) {
	var grid [][]float64
	switch model {
	case "GigaE":
		grid = pickGrid(cs, mmTableVIGigaE, fftTableVIGigaE)
	case "40GI":
		grid = pickGrid(cs, mmTableVI40GI, fftTableVI40GI)
	default:
		return 0, false
	}
	i, ok := lookup(cs, size)
	if !ok {
		return 0, false
	}
	j := -1
	for c, n := range targetNetworks {
		if n == network {
			j = c
		}
	}
	if j < 0 {
		return 0, false
	}
	return time.Duration(grid[i][j] * float64(unit(cs))), true
}

func pickGrid(cs CaseStudy, mm, fft [][]float64) [][]float64 {
	if cs == MM {
		return mm
	}
	return fft
}
