package report

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"rcuda/internal/calib"
	"rcuda/internal/netsim"
)

// WriteSVGs renders every figure as an SVG file in dir and returns the
// written paths: the network characterizations (Figures 3-4), the
// execution-time series under both models (Figures 5-6), and the three
// extension figures (7-9). Each file is the chart of the run the same
// figure's text prints, Figure 8 at the given MM size and FFT batch.
func (c Config) WriteSVGs(dir string, mmSize, fftBatch int) ([]string, error) {
	var charts []chart
	var err error
	collect := func(_ string, cs []chart, e error) {
		charts, err = append(charts, cs...), errors.Join(err, e)
	}
	for _, link := range netsim.Testbed() {
		collect(c.figureLatency(link))
	}
	for _, model := range []string{"GigaE", "40GI"} {
		for _, cs := range []calib.CaseStudy{calib.MM, calib.FFT} {
			collect(c.figureSeries(cs, model))
		}
	}
	collect(c.figure7(8))
	collect(c.figure8(mmSize, fftBatch, 24))
	collect(c.figure9(8))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var written []string
	for _, ch := range charts {
		svg, err := ch.SVG(760, 460)
		if err != nil {
			return nil, fmt.Errorf("render %s: %w", ch.file, err)
		}
		path := filepath.Join(dir, ch.file)
		if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
			return nil, err
		}
		written = append(written, path)
	}
	return written, nil
}
