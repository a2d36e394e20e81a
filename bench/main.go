// Command bench is the repo's one fixed, layer-attributed benchmark
// (ISSUE 11; see README.md). Run it from the repository root:
//
//	go run ./bench                               every workload, result file
//	go run ./bench -trace 1                      ... plus the traced per-layer pass
//	go run ./bench -workload solo-fcn -seed 3    one workload, one JSON line
//	go run ./bench -train                        retrain bench/models/
//	go run ./bench -compare a.json b.json        gate b against a
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload and print one JSON result line")
		seed    = flag.Int64("seed", 1, "content seed: generates every SceneSpec")
		seconds = flag.Float64("seconds", 15, "length of each timed window")
		trace   = flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: untraced end-to-end run")
		runs    = flag.Int("runs", 1, "suite mode: repetitions per workload (medians and spread go to the result file)")
		out     = flag.String("out", "bench/out/result.json", "suite mode: result file")
		train   = flag.Bool("train", false, "train NN-S and FCN-32 and write bench/models/")
		compare = flag.Bool("compare", false, "compare two result files (args: a.json b.json) against BENCHMARK.json bounds")
	)
	flag.Parse()
	runtime.GOMAXPROCS(procs)
	ctx := context.Background()
	window := time.Duration(*seconds * float64(time.Second))

	var err error
	switch {
	case *train:
		err = trainAndSave()
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two result files")
			break
		}
		var worse bool
		if worse, err = compareFiles("BENCHMARK.json", flag.Arg(0), flag.Arg(1), os.Stdout); err == nil && worse {
			os.Exit(1)
		}
	case *name != "":
		err = runOne(ctx, *name, *seed, window, *trace == 1)
	default:
		err = runSuite(ctx, *seed, window, *trace == 1, *runs, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func trainAndSave() error {
	t0 := time.Now()
	m, err := trainModels()
	if err != nil {
		return err
	}
	if err := m.save(); err != nil {
		return err
	}
	fmt.Printf("trained in %.1fs: nns %s, nnl(fcn-%d) %s, nnl_nns_mac_ratio %.1f\n",
		time.Since(t0).Seconds(), m.nnsDigest, nnlWidth, m.nnlDigest, m.macRatio())
	return nil
}

// runOne is the driver's entry: one workload, one run, and as the last line
// of standard output one JSON object with exactly correct, attempted,
// failed and metrics. A run whose outputs are wrong still prints its line
// (correct false) and then exits non-zero.
func runOne(ctx context.Context, name string, seed int64, window time.Duration, traced bool) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	var o *outcome
	var err error
	if traced {
		o, _, err = measureTraced(ctx, w, seed, window)
	} else {
		o, err = measure(ctx, w, seed, window, false)
	}
	if o == nil {
		return err
	}
	printOutcome(os.Stderr, o)
	line, jerr := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.Correct, o.Attempted, o.Failed, o.Metrics})
	if jerr != nil {
		return jerr
	}
	fmt.Println(string(line))
	return err
}
