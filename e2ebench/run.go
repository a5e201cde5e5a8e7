package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// setupStarts is how many times a run starts the daemon; setup_s is the
// median, and the last start serves the load.
const setupStarts = 9

// report is everything one run measured.
type report struct {
	correct           bool
	attempted, failed int
	endToEnd          metricSet
	perLayer          metricSet
	info              runInfo
}

// runInfo is the context printed and kept with every run, so runs on a
// loaded machine can be spotted and discarded.
type runInfo struct {
	Workload       string   `json:"workload"`
	Seed           int64    `json:"seed"`
	Env            envBlock `json:"env"`
	Samples        int      `json:"samples"`
	TailPercentile float64  `json:"latency_tail_percentile"`
	TailBeyond     int      `json:"latency_tail_samples_beyond"`
	FailRatio      float64  `json:"fail_ratio"`
	// StealPct is the share of machine CPU time the hypervisor took from
	// this guest while measuring: a busy host slows every metric.
	StealPct  float64   `json:"cpu_steal_pct"`
	LagP99Ms  *float64  `json:"loadgen_lag_p99_ms,omitempty"` // open loop only
	SetupS    []float64 `json:"setup_s_samples"`
	SpansFile string    `json:"spans_file,omitempty"`
	Error     string    `json:"error,omitempty"`
}

// run measures one workload. A wrong answer returns a report with
// correct=false together with the error; a harness failure returns no
// report.
func run(cfg config) (*report, error) {
	if err := os.RemoveAll(cfg.workDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	in, err := cfg.w.make(cfg.seed, cfg.tiny, cfg.window.Seconds(), cfg.dagen)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	rep := &report{info: runInfo{Workload: cfg.w.name, Seed: cfg.seed, Env: readEnv()}}

	var d *daemon
	for i := 0; i < setupStarts; i++ {
		var took time.Duration
		d, took, err = startDaemon(cfg.hdltsd, filepath.Join(cfg.workDir, fmt.Sprintf("daemon%d", i)))
		if err != nil {
			return nil, err
		}
		rep.info.SetupS = append(rep.info.SetupS, took.Seconds())
		if i < setupStarts-1 {
			d.stop()
		}
	}
	defer d.stop()

	l := newLoader(d.url, in, runtime.NumCPU())
	defer l.close()
	if err := l.warm(cfg.w.kind, in.warm, cfg.w.clients); err != nil {
		wrong := l.wrongAnswer()
		if wrong == nil {
			return nil, err
		}
		rep.attempted, rep.failed = len(in.warm), 1
		rep.endToEnd = fill(endToEndMetrics, map[string]float64{})
		rep.perLayer = fill(perLayerMetrics, map[string]float64{})
		rep.info.Error = "warm-up: " + wrong.Error()
		return rep, saveReport(cfg, rep, wrong)
	}
	cpu0, err := cpuTime(d.pid())
	if err != nil {
		return nil, err
	}
	total0, steal0, err := cpuTicks()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	var samples []sample
	var throughput float64
	var lag []time.Duration
	if cfg.w.kind == kindJobs {
		samples, lag = l.openLoop(in.ops)
		ok, last := 0, t0
		for _, s := range samples {
			if !s.failed {
				ok++
			}
			if s.end.After(last) {
				last = s.end
			}
		}
		throughput = float64(ok) / last.Sub(t0).Seconds()
	} else {
		for _, cr := range l.closedLoop(cfg.w.kind, cfg.w.clients, in.distinct(), cfg.window) {
			ok := 0
			for _, s := range cr.samples {
				if !s.failed {
					ok++
				}
			}
			if cr.busy > 0 {
				throughput += float64(ok) / cr.busy.Seconds()
			}
			samples = append(samples, cr.samples...)
		}
	}
	cpu1, err := cpuTime(d.pid())
	if err != nil {
		return nil, err
	}
	rss, err := peakRSS(d.pid())
	if err != nil {
		return nil, err
	}
	total1, steal1, err := cpuTicks()
	if err != nil {
		return nil, err
	}
	rep.info.StealPct = 100 * float64(steal1-steal0) / math.Max(1, float64(total1-total0))
	d.stop() // nothing else shares the machine with the checks and the replay
	wrong := l.wrongAnswer()
	if wrong == nil && cfg.w.kind == kindJobs {
		wrong = l.check.checkCacheHits()
	}

	var lat, outside []float64
	for _, s := range samples {
		rep.attempted++
		if s.failed {
			// A failed or refused op misses any latency limit.
			rep.failed++
			lat = append(lat, ms(opTimeout))
			continue
		}
		lat = append(lat, ms(s.latency))
		if cfg.w.kind == kindSchedule {
			outside = append(outside, ms(s.outside))
		}
	}
	completed := rep.attempted - rep.failed
	if completed == 0 && wrong == nil {
		return nil, errors.New("no op completed")
	}
	tailV, tailP, beyond := tail(lat)
	rep.info.Samples = len(lat)
	rep.info.TailPercentile, rep.info.TailBeyond = tailP, beyond
	rep.info.FailRatio = float64(rep.failed) / math.Max(1, float64(rep.attempted))
	lagMs := make([]float64, len(lag))
	for i, x := range lag {
		lagMs[i] = ms(x)
	}
	if len(lagMs) > 0 {
		p99 := nearestRank(lagMs, 99)
		rep.info.LagP99Ms = &p99
	}

	rep.endToEnd = fill(endToEndMetrics, map[string]float64{
		"latency_p50_ms":       median(lat),
		"latency_tail_ms":      tailV,
		"throughput_ops_s":     throughput,
		"server_cpu_ms_per_op": ms(cpu1-cpu0) / float64(completed),
		"peak_rss_mb":          rss,
		"setup_s":              median(rep.info.SetupS),
	})
	if wrong != nil {
		rep.info.Error = wrong.Error()
		rep.perLayer = fill(perLayerMetrics, map[string]float64{})
		return rep, saveReport(cfg, rep, wrong)
	}
	rep.correct = true
	var rr *replayResult
	if cfg.trace {
		// A quarter of the window keeps a traced run within 1.5 windows.
		rr, err = replay(cfg.w, in, cfg.window/4, filepath.Join(cfg.workDir, "replay"))
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		rep.info.SpansFile = filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d.spans.jsonl", cfg.w.name, cfg.seed))
		if err := rr.rec.write(rep.info.SpansFile); err != nil {
			return nil, err
		}
	}
	rep.perLayer = perLayer(cfg.w.kind, in, samples, lagMs, outside, median(lat), rr)
	return rep, saveReport(cfg, rep, nil)
}

// warm sends each listed input once, before measuring, so every code path
// and the checker's verdict cache are warm.
func (l *loader) warm(k kind, idx []int, clients int) error {
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := c; j < len(idx); j += clients {
				if s := l.op(k, idx[j]); s.failed {
					errs[c] = fmt.Errorf("warm-up op on input %d failed", idx[j])
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if err := l.wrongAnswer(); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return errors.Join(errs...)
}

// saveReport keeps the run's metrics and context as JSON beside the spans,
// and removes the run's working state when the run was clean.
func saveReport(cfg config, rep *report, runErr error) error {
	trace := 0
	if cfg.trace {
		trace = 1
	}
	out := struct {
		Info     runInfo           `json:"info"`
		EndToEnd map[string]metric `json:"end_to_end"`
		PerLayer map[string]metric `json:"per_layer"`
	}{rep.info, rep.endToEnd.json(), rep.perLayer.json()}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d-trace%d.json", cfg.w.name, cfg.seed, trace))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	if runErr != nil {
		return runErr
	}
	return os.RemoveAll(cfg.workDir)
}

// envBlock describes where a run happened.
type envBlock struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	TreeSHA256 string `json:"tree_sha256"`
}

func readEnv() envBlock {
	e := envBlock{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     "unknown (not a git checkout)",
		TreeSHA256: treeHash("."),
	}
	// Only a checkout's own .git names its commit; git would otherwise
	// report whatever repository happens to enclose the directory.
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			e.Commit = strings.TrimSpace(string(out))
		}
	}
	return e
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// treeHash identifies the source tree a run measured, where no commit is
// available: sha256 over the path and content of every Go source and
// go.mod file, skipping hidden directories such as the build directory.
func treeHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the identifier
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(p))
		_, _ = io.Copy(h, f) // a short read only weakens the identifier
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}
