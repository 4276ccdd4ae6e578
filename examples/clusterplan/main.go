// Clusterplan answers the paper's cluster-sizing question (left as future
// work there): given a cluster, an interconnect, and a job mix, how many
// GPUs does the cluster actually need?
//
// It generates a synthetic trace of GPU jobs, simulates the rCUDA
// deployment with every possible accelerator count under a global
// least-loaded scheduler, compares against the fully equipped
// one-GPU-per-node cluster, and prints the smallest count whose makespan
// lands within the tolerance.
//
// Usage:
//
//	clusterplan [-nodes 16] [-jobs 64] [-interarrival 30s] [-mm 0.8]
//	            [-net 40GI] [-tolerance 0.1] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"
	"time"

	"rcuda"
	"rcuda/internal/cluster"
)

func main() {
	nodes := flag.Int("nodes", 16, "cluster node count")
	jobs := flag.Int("jobs", 64, "jobs in the trace")
	interarrival := flag.Duration("interarrival", 30*time.Second, "mean job interarrival time")
	mmFrac := flag.Float64("mm", 0.8, "fraction of matrix-product jobs (rest are FFT batches)")
	netName := flag.String("net", "40GI", "interconnect")
	tolerance := flag.Float64("tolerance", 0.10, "acceptable makespan slowdown vs a GPU in every node")
	seed := flag.Int64("seed", 1, "trace seed")
	traceFile := flag.String("trace", "", "JSON job trace to load instead of generating one")
	flag.Parse()

	link, err := rcuda.NetworkByName(*netName)
	if err != nil {
		log.Fatal(err)
	}
	var trace []cluster.Job
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			log.Fatal(err)
		}
		trace, err = cluster.LoadTrace(f)
		_ = f.Close()
		if err != nil {
			log.Fatal(err)
		}
		*jobs = len(trace)
	} else {
		trace = cluster.GenerateTrace(cluster.TraceConfig{
			Jobs:             *jobs,
			MeanInterarrival: *interarrival,
			MMFraction:       *mmFrac,
			Seed:             *seed,
		})
	}
	cfg := cluster.Config{Nodes: *nodes, Network: link}

	sweep, err := cluster.SweepGPUs(cfg, trace)
	if err != nil {
		log.Fatal(err)
	}
	localCfg := cfg
	localCfg.Network = nil
	local, err := cluster.Simulate(localCfg, trace)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%d nodes, %d jobs (%.0f%% MM) over %s, mean interarrival %v\n\n",
		*nodes, *jobs, *mmFrac*100, link.Name(), *interarrival)
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "GPUs\tmakespan\tmean turnaround\tp95 turnaround\tmean queue\tmean GPU util")
	for _, r := range sweep {
		var util float64
		for _, u := range r.Utilization {
			util += u
		}
		util /= float64(len(r.Utilization))
		fmt.Fprintf(w, "%d\t%v\t%v\t%v\t%v\t%.0f%%\n",
			r.GPUs, r.Makespan.Round(time.Second),
			r.MeanTurnaround.Round(time.Second), r.P95Turnaround.Round(time.Second),
			r.MeanQueueDelay.Round(time.Second), util*100)
	}
	fmt.Fprintf(w, "%d (local)\t%v\t%v\t%v\t%v\t-\n",
		*nodes, local.Makespan.Round(time.Second),
		local.MeanTurnaround.Round(time.Second), local.P95Turnaround.Round(time.Second),
		local.MeanQueueDelay.Round(time.Second))
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}

	gpus, remote, localMk, err := cluster.RequiredGPUs(cfg, trace, *tolerance)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nverdict: %d of %d nodes need a GPU (makespan %v vs %v fully equipped, tolerance %.0f%%)\n",
		gpus, *nodes, remote.Round(time.Second), localMk.Round(time.Second), *tolerance*100)
	fmt.Printf("capital saved: %d GPUs (%.0f%% of the fully equipped configuration)\n",
		*nodes-gpus, float64(*nodes-gpus)/float64(*nodes)*100)

	// Price the recommended configuration against the fully equipped one
	// using the paper's power figures (a GPU draws ~25% of a node).
	cfg.GPUs = gpus
	savings, err := cluster.CompareCost(cfg, trace, cluster.DefaultCostModel())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("economics:  acquisition %.1f%% cheaper, energy %.1f%% lower, makespan %.1f%% longer\n",
		savings.AcquisitionPc, savings.EnergyPc, savings.SlowdownPc)
	fmt.Printf("            (shared: %.0f Wh over %v; fully equipped: %.0f Wh over %v)\n",
		savings.Shared.EnergyWh, savings.Shared.Makespan.Round(time.Second),
		savings.Local.EnergyWh, savings.Local.Makespan.Round(time.Second))
}
