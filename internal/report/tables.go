package report

import (
	"fmt"
	"strings"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/netsim"
	"rcuda/internal/perfmodel"
	"rcuda/internal/protocol"
	"rcuda/internal/workload"
)

// TableI renders the breakdown of the remote API messages, derived from the
// protocol encoders.
func TableI() string {
	var rows [][]string
	for _, b := range protocol.TableI() {
		for i, f := range b.Fields {
			op := ""
			if i == 0 {
				op = b.Operation
			}
			rows = append(rows, []string{op, f.Name, fmtFieldSize(f.Send), fmtFieldSize(f.Receive)})
		}
		send, sendVar, recv, recvVar := b.Totals()
		rows = append(rows, []string{"", "Total", fmtTotal(send, sendVar), fmtTotal(recv, recvVar)})
		rows = append(rows, []string{"", "", "", ""})
	}
	return "Table I — Breakdown of some remote API messages (bytes)\n\n" +
		tabulate([]string{"Operation", "Field", "Send", "Receive"}, rows)
}

func fmtFieldSize(n int) string {
	switch {
	case n == 0:
		return ""
	case n == protocol.Variable:
		return "x"
	default:
		return fmt.Sprint(n)
	}
}

func fmtTotal(n int, variable bool) string {
	if variable {
		return fmt.Sprintf("x+%d", n)
	}
	return fmt.Sprint(n)
}

// symbolicSizes formats the send/receive size formulas of a Table II row
// from the operation's Table I totals, the copied payload (4m² for an m×m
// MM matrix, 4096n for n FFT transforms) standing for the memcpy's x.
func symbolicSizes(cs calib.CaseStudy, op protocol.Op) (send, recv string) {
	for _, b := range protocol.TableI() {
		if b.Operation == op.String() {
			s, sVar, r, rVar := b.Totals()
			send, recv = fmtTotal(s, sVar), fmtTotal(r, rVar)
		}
	}
	if op == protocol.OpMemcpyToDevice || op == protocol.OpMemcpyToHost {
		payload := "4m²"
		if cs == calib.FFT {
			payload = "4096n"
		}
		send, recv = strings.Replace(send, "x", payload, 1), strings.Replace(recv, "x", payload, 1)
	}
	return send, recv
}

// TableII renders the estimated transfer times of the remote API calls of
// both case studies on the testbed networks, with the paper's symbolic
// size formulas and their evaluation at the given sizes.
func TableII(mmSize, fftBatch int) string {
	ge, ib := netsim.GigaE(), netsim.IB40G()
	var rows [][]string
	add := func(cs calib.CaseStudy, size int) {
		geRows := perfmodel.TableII(cs, size, ge)
		ibRows := perfmodel.TableII(cs, size, ib)
		for i, r := range geRows {
			label := r.Op.String()
			if r.Count > 1 {
				label = fmt.Sprintf("%s (x%d)", label, r.Count)
			}
			first := ""
			if i == 0 {
				first = fmt.Sprintf("%s (size %d)", cs, size)
			}
			symSend, symRecv := symbolicSizes(cs, r.Op)
			rows = append(rows, []string{
				first, label,
				fmt.Sprintf("%s = %d", symSend, r.SendBytes),
				fmt.Sprintf("%s = %d", symRecv, r.RecvBytes),
				fmtUS(r.SendTime), fmtUS(r.RecvTime),
				fmtUS(ibRows[i].SendTime), fmtUS(ibRows[i].RecvTime),
			})
		}
		sb, rb, gst, grt := perfmodel.Totals(geRows)
		_, _, ist, irt := perfmodel.Totals(ibRows)
		rows = append(rows, []string{"", "Total",
			fmt.Sprint(sb), fmt.Sprint(rb), fmtUS(gst), fmtUS(grt), fmtUS(ist), fmtUS(irt)})
		rows = append(rows, []string{"", "", "", "", "", "", "", ""})
	}
	add(calib.MM, mmSize)
	add(calib.FFT, fftBatch)
	return "Table II — Estimated transfer times for the remote API calls\n\n" +
		tabulate([]string{"Case study", "Operation", "Send (B)", "Recv (B)",
			"GigaE send (µs)", "GigaE recv (µs)", "40GI send (µs)", "40GI recv (µs)"}, rows)
}

func fmtUS(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d)/float64(time.Microsecond))
}

// TableIII renders the estimated per-copy transfer times on the testbed
// networks across the paper's problem sizes.
func TableIII() string {
	return "Table III — Estimated transfer times (ms) for each memory copy on the testbed networks\n\n" +
		transferTable([]*netsim.Link{netsim.GigaE(), netsim.IB40G()})
}

// TableV renders the same per-copy estimates on the five target networks.
func TableV() string {
	return "Table V — Estimated transfer times (ms) for each memory copy on the target networks\n\n" +
		transferTable(netsim.Targets())
}

func transferTable(links []*netsim.Link) string {
	header := []string{"Case", "Size", "Data (MB)"}
	for _, l := range links {
		header = append(header, l.Name())
	}
	var rows [][]string
	for _, cs := range []calib.CaseStudy{calib.MM, calib.FFT} {
		for i, size := range calib.Sizes(cs) {
			label := ""
			if i == 0 {
				label = cs.String()
			}
			row := []string{label, fmt.Sprint(size),
				fmt.Sprintf("%.0f", netsim.BytesToMiB(calib.CopyBytes(cs, size)))}
			for _, l := range links {
				row = append(row, fmt.Sprintf("%.1f",
					perfmodel.TransferTime(l, cs, size).Seconds()*1e3))
			}
			rows = append(rows, row)
		}
		rows = append(rows, make([]string, len(header)))
	}
	return tabulate(header, rows)
}

// TableIV runs the full simulated measurement campaign on both testbed
// networks, builds both estimation models, cross-validates them, and
// renders the result with the paper's published error rates alongside.
func (c Config) TableIV() (string, error) {
	data, err := c.TableVIData()
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("Table IV — Cross-validation of both estimation models (MM in s, FFT in ms)\n")
	for _, cs := range []calib.CaseStudy{calib.MM, calib.FFT} {
		fwd, rev := data[cs].CrossGigaE, data[cs].Cross40GI
		header := []string{"Size",
			"GigaE meas", "Fixed", "Est 40GI", "Err %", "paper Err %",
			"40GI meas", "Fixed", "Est GigaE", "Err %", "paper Err %"}
		var rows [][]string
		for i := range fwd {
			f, r := fwd[i], rev[i]
			pf, _ := calib.PaperCrossError(cs, "GigaE", f.Size)
			pr, _ := calib.PaperCrossError(cs, "40GI", f.Size)
			rows = append(rows, []string{
				fmt.Sprint(f.Size),
				fmtPaperUnit(cs, f.MeasuredSource), fmtPaperUnit(cs, f.Fixed),
				fmtPaperUnit(cs, f.Estimated),
				fmt.Sprintf("%.2f", f.RelativeErrorPc), fmt.Sprintf("%.2f", pf),
				fmtPaperUnit(cs, r.MeasuredSource), fmtPaperUnit(cs, r.Fixed),
				fmtPaperUnit(cs, r.Estimated),
				fmt.Sprintf("%.2f", r.RelativeErrorPc), fmt.Sprintf("%.2f", pr),
			})
		}
		fmt.Fprintf(&sb, "\n%s (times in %s)\n", cs, unitName(cs))
		sb.WriteString(tabulate(header, rows))
	}
	return sb.String(), nil
}

// TableVI runs the campaign, measures the CPU and local-GPU baselines,
// builds both models, and renders measured and estimated execution times
// across all seven networks.
func (c Config) TableVI() (string, error) {
	var sb strings.Builder
	sb.WriteString("Table VI — Measured vs. estimated execution times over several networks (MM in s, FFT in ms)\n")
	data, err := c.TableVIData()
	if err != nil {
		return "", err
	}
	for _, cs := range []calib.CaseStudy{calib.MM, calib.FFT} {
		d := data[cs]
		header := []string{"Size", "CPU", "GPU", "GigaE", "40GI"}
		for _, n := range calib.TargetNetworks() {
			header = append(header, "GigaE->"+n)
		}
		for _, n := range calib.TargetNetworks() {
			header = append(header, "40GI->"+n)
		}
		var rows [][]string
		for _, size := range calib.Sizes(cs) {
			row := []string{fmt.Sprint(size),
				fmtPaperUnit(cs, d.CPU[size]), fmtPaperUnit(cs, d.GPU[size]),
				fmtPaperUnit(cs, d.MeasuredGigaE[size]), fmtPaperUnit(cs, d.Measured40GI[size])}
			for _, n := range calib.TargetNetworks() {
				row = append(row, fmtPaperUnit(cs, d.EstGigaEModel[n][size]))
			}
			for _, n := range calib.TargetNetworks() {
				row = append(row, fmtPaperUnit(cs, d.Est40GIModel[n][size]))
			}
			rows = append(rows, row)
		}
		fmt.Fprintf(&sb, "\n%s (times in %s)\n", cs, unitName(cs))
		sb.WriteString(tabulate(header, rows))
	}
	return sb.String(), nil
}

// TableVIResult holds the campaign's results for one case study.
type TableVIResult struct {
	CPU, GPU                    map[int]time.Duration
	MeasuredGigaE, Measured40GI map[int]time.Duration
	// EstGigaEModel and Est40GIModel map target network name → size →
	// estimated execution time.
	EstGigaEModel, Est40GIModel map[string]map[int]time.Duration
	// CrossGigaE and Cross40GI are Table IV's halves: the model built on
	// one testbed network checked against the other's measurements.
	CrossGigaE, Cross40GI []perfmodel.CrossRow
}

// TableVIData runs the measurement campaign behind Tables IV and VI and
// Figures 5/6: both case studies measured on GigaE (noise stream 1), 40GI
// (stream 2), the CPU (3) and the local GPU (4), both models built,
// cross-validated and projected onto the target networks.
func (c Config) TableVIData() (map[calib.CaseStudy]TableVIResult, error) {
	out := make(map[calib.CaseStudy]TableVIResult)
	ge, ib := netsim.GigaE(), netsim.IB40G()
	for _, cs := range []calib.CaseStudy{calib.MM, calib.FFT} {
		res := TableVIResult{
			EstGigaEModel: make(map[string]map[int]time.Duration),
			Est40GIModel:  make(map[string]map[int]time.Duration),
		}
		var err error
		if res.MeasuredGigaE, err = c.measureSeries(cs, ge, 1); err != nil {
			return nil, err
		}
		if res.Measured40GI, err = c.measureSeries(cs, ib, 2); err != nil {
			return nil, err
		}
		if res.CPU, err = workload.MeasureSeries(cs, workload.CPU, workload.Options{Noise: c.noise(3)}, c.reps()); err != nil {
			return nil, err
		}
		if res.GPU, err = workload.MeasureSeries(cs, workload.LocalGPU, workload.Options{Noise: c.noise(4)}, c.reps()); err != nil {
			return nil, err
		}
		geModel, err := perfmodel.Build(cs, ge, res.MeasuredGigaE)
		if err != nil {
			return nil, err
		}
		ibModel, err := perfmodel.Build(cs, ib, res.Measured40GI)
		if err != nil {
			return nil, err
		}
		if res.CrossGigaE, err = perfmodel.CrossValidate(geModel, ib, res.Measured40GI); err != nil {
			return nil, err
		}
		if res.Cross40GI, err = perfmodel.CrossValidate(ibModel, ge, res.MeasuredGigaE); err != nil {
			return nil, err
		}
		for _, target := range netsim.Targets() {
			gm := make(map[int]time.Duration)
			im := make(map[int]time.Duration)
			for _, size := range calib.Sizes(cs) {
				if gm[size], err = geModel.Estimate(target, size); err != nil {
					return nil, err
				}
				if im[size], err = ibModel.Estimate(target, size); err != nil {
					return nil, err
				}
			}
			res.EstGigaEModel[target.Name()] = gm
			res.Est40GIModel[target.Name()] = im
		}
		out[cs] = res
	}
	return out, nil
}
