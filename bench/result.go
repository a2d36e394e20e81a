package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

const resultSchema = 1

// series is one metric over the repetitions of a suite run.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	// Spread is the interquartile distance as a share of the median (0 for
	// a single repetition): what a bound must exceed to resolve a change.
	Spread float64 `json:"spread"`
}

func (s *series) add(m metric) {
	s.Unit = m.Unit
	s.Values = append(s.Values, m.Value)
	s.Median = median(s.Values)
	s.Spread = quartileSpread(s.Values)
}

// workloadResult is one workload's block of a result file.
type workloadResult struct {
	Name      string               `json:"name"`
	Loop      string               `json:"loop"`
	Why       string               `json:"why"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Samples   int                  `json:"latency_samples"`
	Metrics   map[string]*series   `json:"metrics"`
	Layers    map[string]metric    `json:"layers,omitempty"`
	Diag      map[string]float64   `json:"diagnostics,omitempty"`
	LayerTime map[string]layerTime `json:"layer_time,omitempty"`
}

// metric folds one repetition's value into the named series.
func (w *workloadResult) metric(name string, m metric) {
	if w.Metrics[name] == nil {
		w.Metrics[name] = &series{}
	}
	w.Metrics[name].add(m)
}

// resultFile is what a suite run writes and -compare reads.
type resultFile struct {
	Schema     int               `json:"schema"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	GoMaxProcs int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go"`
	Models     map[string]string `json:"models"`
	MACRatio   float64           `json:"nnl_nns_mac_ratio"`
	Workloads  []*workloadResult `json:"workloads"`
}

func (r *resultFile) workload(name string) *workloadResult {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

func readResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %d, this build reads %d", path, r.Schema, resultSchema)
	}
	return &r, nil
}

func (r *resultFile) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printOutcome lists every metric of a run by name with its unit, then the
// diagnostics.
func printOutcome(w io.Writer, o *outcome) {
	fmt.Fprintf(w, "%s: attempted %d, failed %d, correct %t, latency samples %d\n",
		o.Workload, o.Attempted, o.Failed, o.Correct, o.Samples)
	for _, k := range sortedKeys(o.Metrics) {
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", k, o.Metrics[k].Value, o.Metrics[k].Unit)
	}
	for _, k := range sortedKeys(o.Diag) {
		fmt.Fprintf(w, "  . %-26s %14.4f\n", k, o.Diag[k])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// runSuite runs every workload (runs times each, untraced), optionally the
// traced pass, prints everything and writes the result file. Any failed
// frame makes it return an error after the file is written.
func runSuite(ctx context.Context, seed int64, window time.Duration, traced bool, runs int, out string) error {
	m, err := loadModels()
	if err != nil {
		return err
	}
	res := &resultFile{
		Schema: resultSchema, Seed: seed, Seconds: window.Seconds(),
		GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Models:   map[string]string{"nns": m.nnsDigest, "nnl": m.nnlDigest},
		MACRatio: m.macRatio(),
	}
	fmt.Printf("seed %d, window %.0fs, GOMAXPROCS %d, %s\n", seed, window.Seconds(), res.GoMaxProcs, res.GoVersion)
	fmt.Printf("models: nns %s, nnl(fcn-%d) %s, nnl_nns_mac_ratio %.1f\n", m.nnsDigest, nnlWidth, m.nnlDigest, res.MACRatio)
	var firstErr error
	traces := make(map[string][]span)
	t0 := time.Now()
	for _, w := range workloads {
		wr := &workloadResult{Name: w.name, Loop: w.loop, Why: w.why, Metrics: make(map[string]*series)}
		res.Workloads = append(res.Workloads, wr)
		for i := 0; i < runs; i++ {
			o, err := measure(ctx, w, seed, window, true)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			if o == nil {
				break
			}
			printOutcome(os.Stdout, o)
			wr.Attempted, wr.Failed, wr.Samples, wr.Diag = wr.Attempted+o.Attempted, wr.Failed+o.Failed, o.Samples, o.Diag
			for k, v := range o.Metrics {
				wr.metric(k, v)
			}
		}
		if !traced {
			continue
		}
		o, tr, err := measureTraced(ctx, w, seed, window)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if o == nil {
			continue
		}
		printOutcome(os.Stdout, o)
		wr.Layers = o.Metrics
		wr.LayerTime = selfTimes(tr)
		traces[w.name] = tr
	}
	fmt.Printf("total %.0fs\n", time.Since(t0).Seconds())
	if traced {
		tracePath := filepath.Join(filepath.Dir(out), "trace.json")
		if err := writeTrace(tracePath, traces); err != nil {
			return err
		}
		fmt.Println("wrote", tracePath)
	}
	if err := res.write(out); err != nil {
		return err
	}
	fmt.Println("wrote", out)
	return firstErr
}

// spec is the part of BENCHMARK.json -compare needs.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict judges one metric of b against a. change is how much worse b's
// median is as a share of a's (negative: better). A change past the bound
// is worse; otherwise, if either side's spread is wider than the bound the
// runs cannot show the metric unchanged, and it is unresolved.
func verdict(better string, bound, a, b, spreadA, spreadB float64) (change float64, v string) {
	change = (b - a) / a
	if better == "higher" {
		change = -change
	}
	switch {
	case change > bound:
		return change, "worse"
	case spreadA > bound || spreadB > bound:
		return change, "unresolved"
	}
	return change, "ok"
}

// compareFiles prints one row per workload × end-to-end metric and reports
// whether any is worse.
func compareFiles(specPath, aPath, bPath string, w io.Writer) (worse bool, err error) {
	sb, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var sp spec
	if err := json.Unmarshal(sb, &sp); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := readResult(aPath)
	if err != nil {
		return false, err
	}
	b, err := readResult(bPath)
	if err != nil {
		return false, err
	}
	if a.Models["nns"] != b.Models["nns"] || a.Models["nnl"] != b.Models["nnl"] {
		fmt.Fprintln(w, "note: the two files were measured with different model weights")
	}
	if a.Seed != b.Seed || a.Seconds != b.Seconds || a.GoMaxProcs != b.GoMaxProcs {
		fmt.Fprintln(w, "note: seed, window or GOMAXPROCS differ between the two files")
	}
	fmt.Fprintf(w, "%-12s %-11s %12s %12s %8s %6s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Name)
		if wb == nil {
			continue
		}
		for _, m := range sp.EndToEnd {
			sa, sb := wa.Metrics[m.Name], wb.Metrics[m.Name]
			if sa == nil || sb == nil {
				continue
			}
			change, v := verdict(m.Better, m.Bound, sa.Median, sb.Median, sa.Spread, sb.Spread)
			if wb.Failed > wa.Failed {
				v = "worse" // more failed frames than the baseline voids any number
			}
			worse = worse || v == "worse"
			fmt.Fprintf(w, "%-12s %-11s %12.4f %12.4f %+7.1f%% %5.0f%%  %s\n",
				wa.Name, m.Name, sa.Median, sb.Median, 100*change, 100*m.Bound, v)
		}
	}
	return worse, nil
}
