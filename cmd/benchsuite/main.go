// Command benchsuite regenerates the tables and figures of the VR-DANN
// paper's evaluation and prints them in the same rows/series the paper
// reports.
//
// Usage:
//
//	benchsuite [-frames N] [-res WxH] [-workers N] [figures...]
//
// With no figure arguments, every experiment runs. Valid names: fig3a,
// fig3b, fig9, fig10, fig11, fig12, fig13, fig14, fig15, fig16, fig17,
// tableII, headline, ablations, timeline, realtime, dse, stability,
// energy, stages, serve, quant, faults, cache, shard, qos, adapt.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"vrdann/internal/experiments"
	"vrdann/internal/par"
)

func main() {
	frames := flag.Int("frames", 48, "frames per benchmark sequence")
	res := flag.String("res", "96x64", "accuracy evaluation resolution WxH")
	workers := flag.Int("workers", 1, "per-pipeline worker count (> 1 overlaps NN-L with B-frame work; results are bit-identical)")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of tables")
	flag.Parse()

	cfg := experiments.Default()
	cfg.Frames = *frames
	cfg.PipelineWorkers = *workers
	if _, err := fmt.Sscanf(*res, "%dx%d", &cfg.W, &cfg.H); err != nil {
		fmt.Fprintf(os.Stderr, "benchsuite: bad -res %q: %v\n", *res, err)
		os.Exit(1)
	}
	h := experiments.New(cfg)

	all := []string{"fig3a", "fig3b", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "tableII", "headline", "ablations", "timeline", "realtime", "dse", "stability", "energy", "stages", "serve", "quant", "faults", "cache", "shard", "qos", "adapt"}
	want := flag.Args()
	if len(want) == 0 {
		want = all
	}
	if *jsonOut {
		// "workers" is the parallelism a pipeline run can actually get
		// (clamped to GOMAXPROCS); the raw flag is kept alongside so sweeps
		// over-requesting workers remain distinguishable.
		out := map[string]any{
			"workers":          par.EffectiveWorkers(cfg.PipelineWorkers),
			"workersRequested": cfg.PipelineWorkers,
		}
		// JSON output always carries the per-stage profile of one
		// instrumented run, so downstream tooling can correlate figure data
		// with where the time went.
		stages, err := h.Stages()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchsuite: stages: %v\n", err)
			os.Exit(1)
		}
		out["stages"] = stages
		for _, name := range want {
			data, err := figureData(h, name)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchsuite: %s: %v\n", name, err)
				os.Exit(1)
			}
			out[name] = data
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "benchsuite: %v\n", err)
			os.Exit(1)
		}
		return
	}
	for _, name := range want {
		start := time.Now()
		if err := runFigure(h, name); err != nil {
			fmt.Fprintf(os.Stderr, "benchsuite: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("  [%s took %.1fs]\n\n", name, time.Since(start).Seconds())
	}
}

// figureData returns the raw row structures behind a figure for JSON
// output.
func figureData(h *experiments.Harness, name string) (any, error) {
	switch name {
	case "fig3a":
		rows, mean, err := h.Fig3a()
		return map[string]any{"rows": rows, "mean": mean}, err
	case "fig3b":
		hist, maxRefs, err := h.Fig3b()
		return map[string]any{"hist": hist, "max": maxRefs}, err
	case "fig9":
		rows, err := h.Fig9()
		return rows, err
	case "fig10":
		rows, err := h.Fig10()
		return rows, err
	case "fig11":
		rows, err := h.Fig11()
		return rows, err
	case "fig12":
		rows, err := h.Fig12()
		return rows, err
	case "fig13":
		rows, err := h.Fig13()
		return rows, err
	case "fig14":
		rows, err := h.Fig14()
		return rows, err
	case "fig15":
		rows, err := h.Fig15()
		return rows, err
	case "fig16":
		rows, err := h.Fig16()
		return rows, err
	case "fig17":
		rows, err := h.Fig17()
		return rows, err
	case "tableII":
		return h.TableII(), nil
	case "headline":
		return h.Headline()
	case "realtime":
		rows, err := h.Realtime()
		return rows, err
	case "dse":
		rows, err := h.DSE()
		return rows, err
	case "stability":
		rows, err := h.Stability()
		return rows, err
	case "energy":
		rows, err := h.EnergyBreakdown()
		return rows, err
	case "timeline":
		return h.Timeline()
	case "stages":
		return h.Stages()
	case "serve":
		rows, err := h.Serve()
		return rows, err
	case "cache":
		rows, err := h.CacheFigure()
		return rows, err
	case "shard":
		return h.ShardFigure()
	case "qos":
		rows, err := h.QoSFigure()
		return rows, err
	case "adapt":
		rows, err := h.AdaptFigure()
		return rows, err
	case "quant":
		return h.Quant()
	case "faults":
		return h.Faults()
	case "ablations":
		co, err := h.AblationCoalescing()
		if err != nil {
			return nil, err
		}
		la, err := h.AblationLaggedSwitching()
		if err != nil {
			return nil, err
		}
		tb, err := h.AblationTmpB()
		if err != nil {
			return nil, err
		}
		return map[string]any{"coalescing": co, "laggedSwitching": la, "tmpB": tb}, nil
	default:
		return nil, fmt.Errorf("unknown figure %q", name)
	}
}

func runFigure(h *experiments.Harness, name string) error {
	switch name {
	case "fig3a":
		rows, mean, err := h.Fig3a()
		if err != nil {
			return err
		}
		fmt.Println("Fig 3a: B-frame ratio per video (auto encoder settings)")
		for _, r := range rows {
			fmt.Printf("  %-20s %5.1f%%\n", r.Name, 100*r.BRatio)
		}
		fmt.Printf("  %-20s %5.1f%%   (paper: ~65%% average)\n", "AVERAGE", 100*mean)
	case "fig3b":
		hist, maxRefs, err := h.Fig3b()
		if err != nil {
			return err
		}
		fmt.Println("Fig 3b: number of distinct reference frames per B-frame")
		var keys []int
		total := 0
		for k, n := range hist {
			keys = append(keys, k)
			total += n
		}
		sort.Ints(keys)
		for _, k := range keys {
			fmt.Printf("  %d refs: %5.1f%% of B-frames\n", k, 100*float64(hist[k])/float64(total))
		}
		fmt.Printf("  max refs = %d   (paper: up to 7)\n", maxRefs)
	case "fig9":
		rows, err := h.Fig9()
		if err != nil {
			return err
		}
		fmt.Println("Fig 9: per-video segmentation accuracy (F-Score / IoU)")
		fmt.Printf("  %-20s %14s %14s\n", "video", "FAVOS (F/J)", "VR-DANN (F/J)")
		for _, r := range rows {
			fmt.Printf("  %-20s %6.3f %6.3f  %6.3f %6.3f\n", r.Name, r.FavosF, r.FavosJ, r.VrdF, r.VrdJ)
		}
	case "fig10":
		rows, err := h.Fig10()
		if err != nil {
			return err
		}
		fmt.Println("Fig 10: averaged segmentation accuracy")
		for _, r := range rows {
			fmt.Printf("  %-10s F=%.3f  J=%.3f\n", r.Scheme, r.F, r.J)
		}
	case "fig11":
		rows, err := h.Fig11()
		if err != nil {
			return err
		}
		fmt.Println("Fig 11: detection mAP by speed class")
		fmt.Printf("  %-14s %8s %8s %8s %8s\n", "scheme", "overall", "slow", "medium", "fast")
		for _, r := range rows {
			fmt.Printf("  %-14s %8.3f %8.3f %8.3f %8.3f\n", r.Scheme, r.Overall, r.Slow, r.Med, r.Fast)
		}
	case "fig12":
		rows, err := h.Fig12()
		if err != nil {
			return err
		}
		fmt.Println("Fig 12: per-video execution cycles (normalized to FAVOS) and TOPS")
		fmt.Printf("  %-20s %8s %9s %11s %11s\n", "video", "serial", "parallel", "FAVOS TOP/f", "VRD TOP/f")
		var s, p float64
		for _, r := range rows {
			fmt.Printf("  %-20s %8.3f %9.3f %11.3f %11.3f\n", r.Name, r.SerialNorm, r.ParallelNorm, r.FavosTOPS, r.VrdTOPS)
			s += r.SerialNorm
			p += r.ParallelNorm
		}
		n := float64(len(rows))
		fmt.Printf("  %-20s %8.3f %9.3f   (speedups: serial %.2fx, parallel %.2fx)\n",
			"AVERAGE", s/n, p/n, n/s, n/p)
	case "fig13":
		rows, err := h.Fig13()
		if err != nil {
			return err
		}
		fmt.Println("Fig 13: averaged performance and energy (normalized to FAVOS)")
		for _, r := range rows {
			fmt.Printf("  %-18s speedup=%5.2fx  energy=%5.2fx  fps=%5.1f\n", r.Scheme, r.Speedup, r.EnergyNorm, r.FPS)
		}
	case "fig14":
		rows, err := h.Fig14()
		if err != nil {
			return err
		}
		fmt.Println("Fig 14: DRAM access breakdown (fractions of FAVOS total)")
		for _, r := range rows {
			var parts []string
			var keys []string
			for k := range r.Share {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				parts = append(parts, fmt.Sprintf("%s=%.3f", k, r.Share[k]))
			}
			fmt.Printf("  %-18s total=%.3f  %s\n", r.Scheme, r.Total, strings.Join(parts, " "))
		}
	case "fig15":
		rows, err := h.Fig15()
		if err != nil {
			return err
		}
		fmt.Println("Fig 15: accuracy and cycles vs B-frame ratio")
		for _, r := range rows {
			fmt.Printf("  %-14s (actual %4.1f%%)  F=%.3f J=%.3f cycles=%.3fx\n", r.Label, 100*r.BRatio, r.F, r.J, r.CyclesNorm)
		}
	case "fig16":
		rows, err := h.Fig16()
		if err != nil {
			return err
		}
		fmt.Println("Fig 16: accuracy and cycles vs search interval n")
		for _, r := range rows {
			label := fmt.Sprintf("n=%d", r.N)
			if r.N == 0 {
				label = "auto"
			}
			fmt.Printf("  %-6s F=%.3f J=%.3f cycles=%.3fx\n", label, r.F, r.J, r.CyclesNorm)
		}
	case "fig17":
		rows, err := h.Fig17()
		if err != nil {
			return err
		}
		fmt.Println("Fig 17: accuracy by encoding standard")
		for _, r := range rows {
			fmt.Printf("  %-20s F=%.3f J=%.3f\n", r.Standard, r.F, r.J)
		}
	case "tableII":
		fmt.Println(h.TableII())
	case "stability":
		rows, err := h.Stability()
		if err != nil {
			return err
		}
		fmt.Println("Temporal instability (lower = less mask flicker):")
		for _, r := range rows {
			fmt.Printf("  %-10s %.4f\n", r.Scheme, r.Instability)
		}
	case "energy":
		rows, err := h.EnergyBreakdown()
		if err != nil {
			return err
		}
		fmt.Println("Energy breakdown per scheme (suite totals, mJ):")
		fmt.Printf("  %-18s %8s %8s %8s %8s %8s %9s\n", "scheme", "NPU", "DRAM", "decoder", "agent", "static", "total")
		for _, r := range rows {
			fmt.Printf("  %-18s %8.0f %8.0f %8.0f %8.0f %8.0f %9.0f\n",
				r.Scheme, r.NPU, r.DRAM, r.Dec, r.Agent, r.Static, r.Total)
		}
	case "dse":
		rows, err := h.DSE()
		if err != nil {
			return err
		}
		fmt.Println("Design-space exploration: NPU compute x DRAM bandwidth")
		fmt.Printf("  %8s %6s %11s %12s %9s\n", "TOPS", "BW", "FAVOS fps", "VR-DANN fps", "speedup")
		for _, r := range rows {
			fmt.Printf("  %8.0f %5.1fx %11.1f %12.1f %8.2fx\n",
				r.PeakTOPS, r.BandwidthX, r.FavosFPS, r.VrdannFPS, r.Speedup)
		}
	case "realtime":
		rows, err := h.Realtime()
		if err != nil {
			return err
		}
		fmt.Println("Real-time behaviour against a 25 fps camera (suite average):")
		for _, r := range rows {
			fmt.Printf("  %-18s avg=%6.1fms p99=%7.1fms misses=%5.1f%%  sustains %.0f fps (worst video %.0f)\n",
				r.Scheme, r.AvgLatencyMS, r.P99LatencyMS, r.MissPct, r.SustainedFPS, r.MinFPS)
		}
	case "timeline":
		out, err := h.Timeline()
		if err != nil {
			return err
		}
		fmt.Println("Execution timelines on \"cows\" (Fig 7 style; #: busy):")
		fmt.Print(out)
	case "stages":
		rep, err := h.Stages()
		if err != nil {
			return err
		}
		fmt.Println("Per-stage profile of one instrumented VR-DANN run:")
		fmt.Print(rep.Table())
	case "serve":
		rows, err := h.Serve()
		if err != nil {
			return err
		}
		fmt.Println("Multi-stream serving sweep (closed loop, cap 8 sessions):")
		fmt.Printf("  %7s %8s %7s %7s %9s %11s %8s %8s %8s %7s\n",
			"streams", "admitted", "rejects", "frames", "total fps", "per-strm fps", "p50 ms", "p95 ms", "p99 ms", "drop%")
		for _, r := range rows {
			fmt.Printf("  %7d %8d %7d %7d %9.1f %11.1f %8.1f %8.1f %8.1f %6.1f%%\n",
				r.Streams, r.Admitted, r.AdmissionRejects, r.Frames,
				r.FPS, r.PerStreamFPS, r.P50MS, r.P95MS, r.P99MS, r.DropPct)
		}
	case "cache":
		rows, err := h.CacheFigure()
		if err != nil {
			return err
		}
		fmt.Println("Content cache sweep (viewers x distinct contents; 2 chunks per session):")
		fmt.Printf("  %8s %8s %7s %12s %11s %8s %6s %6s %6s %10s %13s\n",
			"contents", "viewers", "frames", "uncached fps", "cached fps", "speedup", "hits", "miss", "evict", "saved MB", "broadcast f/s")
		for _, r := range rows {
			bcast := "-"
			if r.BroadcastFPS > 0 {
				bcast = fmt.Sprintf("%.1f", r.BroadcastFPS)
			}
			fmt.Printf("  %8d %8d %7d %12.1f %11.1f %7.2fx %6d %6d %6d %10.2f %13s\n",
				r.Contents, r.Viewers, r.Frames, r.UncachedFPS, r.CachedFPS, r.Speedup,
				r.Hits, r.Misses, r.Evictions, float64(r.BytesSaved)/(1<<20), bcast)
		}
	case "shard":
		rep, err := h.ShardFigure()
		if err != nil {
			return err
		}
		fmt.Printf("Sharded serving scale-out (one gateway over N vrserve nodes; host procs %d):\n",
			rep.HostProcs)
		fmt.Printf("  %5s %8s %7s %7s %9s %13s %10s\n",
			"nodes", "sessions", "chunks", "frames", "agg fps", "per-node fps", "scale eff")
		for _, r := range rep.Rows {
			fmt.Printf("  %5d %8d %7d %7d %9.1f %13.1f %10.2f\n",
				r.Nodes, r.Sessions, r.Chunks, r.Frames, r.FPS, r.PerNodeFPS, r.ScaleEff)
		}
		m := rep.Migration
		fmt.Printf("  migration leg: %d/%d sessions moved (%d migrations, %d rebalances, %d proxy errors)\n",
			m.Moved, m.Sessions, m.Migrations, m.Rebalances, m.ProxyErrors)
		fmt.Printf("  migration latency: mean %.1fms p50 %.1fms p95 %.1fms\n",
			m.MigrateMeanMS, m.MigrateP50MS, m.MigrateP95MS)
	case "qos":
		rows, err := h.QoSFigure()
		if err != nil {
			return err
		}
		fmt.Println("QoS ladder overload sweep (open-loop arrivals, premium/free mix):")
		fmt.Printf("  %9s %7s %7s %8s %8s %7s %7s %7s %28s\n",
			"interval", "frames", "drop", "p95 ms", "p99 ms", "IoU", "IoU(p)", "IoU(f)", "steps full/refine/recon/skip")
		for _, r := range rows {
			fmt.Printf("  %7.0fms %7d %7d %8.1f %8.1f %7.3f %7.3f %7.3f %9d %6d %5d %5d\n",
				r.IntervalMS, r.Frames, r.Dropped, r.P95MS, r.P99MS,
				r.MeanIoU, r.PremiumIoU, r.FreeIoU,
				r.StepFull, r.StepRefine, r.StepRecon, r.StepSkip)
		}
	case "adapt":
		rows, err := h.AdaptFigure()
		if err != nil {
			return err
		}
		fmt.Println("Online per-stream adaptation on the content-drift stream (frozen vs adapted):")
		fmt.Printf("  %-8s %7s %9s %8s %8s %8s %8s %8s %9s %9s %7s %7s %6s\n",
			"mode", "frames", "total fps", "p50 ms", "p95 ms", "p99 ms", "early F", "late F", "drift(e)", "drift(l)", "steps", "promo", "rollbk")
		for _, r := range rows {
			fmt.Printf("  %-8s %7d %9.1f %8.1f %8.1f %8.1f %8.3f %8.3f %9.3f %9.3f %7d %7d %6d\n",
				r.Mode, r.Frames, r.FPS, r.P50MS, r.P95MS, r.P99MS,
				r.EarlyF, r.LateF, r.EarlyDriftF, r.LateDriftF,
				r.TrainSteps, r.Promotions, r.Rollbacks)
		}
	case "quant":
		rep, err := h.Quant()
		if err != nil {
			return err
		}
		k := rep.Kernels
		fmt.Println("Quantized kernel tier (int8 vs float, residual-driven skipping):")
		fmt.Printf("  kernels (batch %d): float %.1fms/item, int8 %.1fms/item — %.2fx, %.2f Gop/s int8 (sim efficiency %.2e)\n",
			k.Items, k.FloatNSPerItem/1e6, k.Int8NSPerItem/1e6, k.Speedup, k.Int8OpsPerSec/1e9, k.SimEfficiency)
		fmt.Printf("  %-10s %7s %9s %8s %8s %8s %7s %7s %6s\n",
			"path", "frames", "total fps", "p50 ms", "p95 ms", "p99 ms", "F", "dF", "skip%")
		for _, r := range rep.Rows {
			fmt.Printf("  %-10s %7d %9.1f %8.1f %8.1f %8.1f %7.3f %7.3f %5.1f%%\n",
				r.Path, r.Frames, r.FPS, r.P50MS, r.P95MS, r.P99MS, r.FScore, r.DeltaF, 100*r.SkipRate)
		}
	case "faults":
		rep, err := h.Faults()
		if err != nil {
			return err
		}
		fmt.Println("Fault-injection soak (8 sessions, 20% corrupted chunks):")
		fmt.Printf("  chunks offered %d, corrupted %d, hung %d\n",
			rep.ChunksOffered, rep.Corrupted, rep.Hung)
		fmt.Printf("  served clean %d, served corrupt %d, admission-rejected %d, failed classified %d\n",
			rep.ServedClean, rep.ServedCorrupt, rep.AdmissionRejected, rep.FailedClassified)
		fmt.Printf("  counters: decode-errors %d, resyncs %d, breaker-trips %d\n",
			rep.DecodeErrors, rep.Resyncs, rep.BreakerTrips)
	case "headline":
		hl, err := h.Headline()
		if err != nil {
			return err
		}
		fmt.Println("Headline (Sec VI):")
		fmt.Printf("  speedup vs OSVOS       %4.1fx (paper 5.7x)\n", hl.SpeedupVsOSVOS)
		fmt.Printf("  speedup vs FAVOS       %4.1fx (paper 2.9x)\n", hl.SpeedupVsFAVOS)
		fmt.Printf("  speedup vs DFF         %4.1fx (paper 2.2x)\n", hl.SpeedupVsDFF)
		fmt.Printf("  speedup vs Euphrates-2 %4.1fx (paper 1.4x)\n", hl.SpeedupVsEuphrates2)
		fmt.Printf("  serial speedup vs FAVOS %3.1fx (paper 2.0x)\n", hl.SerialSpeedupVsFAVOS)
		fmt.Printf("  energy vs OSVOS        %4.1fx (paper 4.3x)\n", hl.EnergyVsOSVOS)
		fmt.Printf("  energy vs FAVOS        %4.1fx (paper 2.1x)\n", hl.EnergyVsFAVOS)
		fmt.Printf("  energy vs DFF          %4.1fx (paper 1.7x)\n", hl.EnergyVsDFF)
		fmt.Printf("  energy vs serial       %4.1fx (paper 1.1x)\n", hl.EnergyVsSerial)
		fmt.Printf("  FAVOS fps              %4.1f  (paper 13)\n", hl.FAVOSFPS)
		fmt.Printf("  VR-DANN fps            %4.1f  (paper 40)\n", hl.VRDANNFPS)
		fmt.Printf("  F-Score loss vs FAVOS  %4.2f%% (paper <1%%)\n", hl.AccuracyLossVsFAVOSPct)
	case "ablations":
		co, err := h.AblationCoalescing()
		if err != nil {
			return err
		}
		la, err := h.AblationLaggedSwitching()
		if err != nil {
			return err
		}
		tb, err := h.AblationTmpB()
		if err != nil {
			return err
		}
		fmt.Println("Ablations (VR-DANN-parallel):")
		for _, rows := range [][]experiments.AblationRow{co, la, tb} {
			for _, r := range rows {
				fmt.Printf("  %-24s total=%8.1fms agent=%7.1fms misses=%9d switches=%4d\n",
					r.Label, r.TotalNS/1e6, r.AgentNS/1e6, r.Misses, r.Switches)
			}
		}
		wf, wj, of, oj, err := h.AblationRefinement()
		if err != nil {
			return err
		}
		fmt.Printf("  %-24s F=%.3f J=%.3f\n", "NN-S refinement on", wf, wj)
		fmt.Printf("  %-24s F=%.3f J=%.3f\n", "NN-S refinement off", of, oj)
		ff, fj, qf, qj, err := h.AblationInt8()
		if err != nil {
			return err
		}
		fmt.Printf("  %-24s F=%.3f J=%.3f\n", "NN-S FP32", ff, fj)
		fmt.Printf("  %-24s F=%.3f J=%.3f\n", "NN-S INT8 (NPU deploy)", qf, qj)
	default:
		return fmt.Errorf("unknown figure %q", name)
	}
	return nil
}
