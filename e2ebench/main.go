// Command e2ebench is the repository's end-to-end benchmark: it drives a
// real hdltsd, built from the same tree, over loopback with one of three
// named workloads, checks every answer, and prints user-side metrics. With
// -trace 1 it prints per-layer metrics instead, from the same load plus an
// in-process replay of the same inputs with a span around each layer.
// See README.md beside this file; run it through run.py, which builds the
// binaries first:
//
//	python3 e2ebench/run.py --workload sched-cybershake2k --seed 1 --seconds 30 --trace 0
//	python3 e2ebench/run.py --selftest
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one run's settings.
type config struct {
	w       workload
	seed    int64
	window  time.Duration
	trace   bool
	tiny    bool
	hdltsd  string
	dagen   string
	workDir string // this run's working state, inside the checkout
	outDir  string // where spans and results are kept
}

func main() {
	var (
		name     = flag.String("workload", "", "workload name (see BENCHMARK.json)")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 30, "measuring window in seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced replay")
		hdltsd   = flag.String("hdltsd", "", "hdltsd binary")
		dagen    = flag.String("dagen", "", "dagen binary")
		work     = flag.String("work", ".bench_build", "directory for run state and outputs")
		selftest = flag.Bool("selftest", false, "run every workload at a tiny size with all checks, then exit")
	)
	flag.Parse()
	if *hdltsd == "" || *dagen == "" {
		fatal(errors.New("-hdltsd and -dagen are required"))
	}
	if *selftest {
		if err := selfTest(*hdltsd, *dagen, *work); err != nil {
			fatal(err)
		}
		fmt.Println("selftest ok")
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace %d: want 0 or 1", *trace))
	}
	cfg := config{
		w: w, seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, hdltsd: *hdltsd, dagen: *dagen,
		workDir: filepath.Join(*work, "run", fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *trace)),
		outDir:  filepath.Join(*work, "results"),
	}
	rep, err := run(cfg)
	if rep == nil {
		fatal(err)
	}
	printReport(cfg, rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
	}
	out := rep.endToEnd
	if cfg.trace {
		out = rep.perLayer
	}
	line, jerr := json.Marshal(result{Correct: rep.correct, Attempted: rep.attempted,
		Failed: rep.failed, Metrics: out.json()})
	if jerr != nil {
		fatal(jerr)
	}
	fmt.Println(string(line))
	if !rep.correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(1)
}

// metricSet is an ordered list of named metrics; a NaN value means the
// metric does not apply to the workload.
type metricSet []namedMetric

type namedMetric struct {
	name string
	metric
}

// json renders the set for the result line, where a metric that does not
// apply reads 0.
func (s metricSet) json() map[string]metric {
	m := make(map[string]metric, len(s))
	for _, x := range s {
		if math.IsNaN(x.Value) || math.IsInf(x.Value, 0) {
			x.Value = 0
		}
		m[x.name] = x.metric
	}
	return m
}

func (s metricSet) names() []string {
	out := make([]string, len(s))
	for i, x := range s {
		out[i] = x.name
	}
	return out
}

// printReport writes the human-readable lines: every metric with its unit,
// then the run's context as one JSON object.
func printReport(cfg config, rep *report) {
	set, label := rep.endToEnd, "end-to-end"
	if cfg.trace {
		set, label = rep.perLayer, "per-layer"
	}
	fmt.Printf("# %s seed=%d %s\n", cfg.w.name, cfg.seed, label)
	for _, m := range set {
		if math.IsNaN(m.Value) {
			fmt.Printf("%-20s %-32s %14s\n", cfg.w.name, m.name, "n/a")
			continue
		}
		fmt.Printf("%-20s %-32s %14.4f %s\n", cfg.w.name, m.name, m.Value, m.Unit)
	}
	info, err := json.Marshal(rep.info)
	if err == nil {
		fmt.Printf("info %s\n", info)
	}
}
