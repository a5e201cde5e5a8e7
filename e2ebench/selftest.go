package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"
)

// selfTest runs every workload at a tiny size, traced so that both metric
// sets and the replay run, with every output check on. It guards the
// harness against rot in a few seconds instead of a full-length run, and
// holds the metric names it prints to those BENCHMARK.json declares.
func selfTest(hdltsd, dagen, work string) error {
	declared, err := declaredMetrics("BENCHMARK.json")
	if err != nil {
		return err
	}
	for _, w := range workloads {
		if !slices.Contains(declared.workloads, w.name) {
			return fmt.Errorf("workload %s is not in BENCHMARK.json", w.name)
		}
		cfg := config{
			w: w, seed: 1, window: 1500 * time.Millisecond, trace: true, tiny: true,
			hdltsd: hdltsd, dagen: dagen,
			workDir: filepath.Join(work, "selftest", w.name),
			outDir:  filepath.Join(work, "selftest", "results"),
		}
		rep, err := run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if !rep.correct || rep.failed != 0 || rep.attempted == 0 {
			return fmt.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, rep.correct, rep.attempted, rep.failed)
		}
		if err := sameNames(rep.endToEnd, declared.endToEnd); err != nil {
			return fmt.Errorf("%s end-to-end: %w", w.name, err)
		}
		if err := sameNames(rep.perLayer, declared.perLayer); err != nil {
			return fmt.Errorf("%s per-layer: %w", w.name, err)
		}
		for _, m := range rep.endToEnd {
			if !(m.Value > 0) || math.IsInf(m.Value, 0) {
				return fmt.Errorf("%s: %s = %v, want a positive number", w.name, m.name, m.Value)
			}
		}
		fmt.Printf("selftest %-20s ok: %d ops, p50 %.2f ms\n", w.name, rep.attempted, rep.endToEnd[0].Value)
	}
	return nil
}

// benchmarkFile is the part of BENCHMARK.json the self-test compares.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

type declared struct{ workloads, endToEnd, perLayer []string }

func declaredMetrics(path string) (*declared, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	d := &declared{}
	for _, x := range f.Workloads {
		d.workloads = append(d.workloads, x.Name)
	}
	for _, x := range f.EndToEnd {
		d.endToEnd = append(d.endToEnd, x.Name)
	}
	for _, x := range f.PerLayer {
		d.perLayer = append(d.perLayer, x.Name)
	}
	return d, nil
}

func sameNames(s metricSet, want []string) error {
	got := s.names()
	sort.Strings(got)
	w := append([]string(nil), want...)
	sort.Strings(w)
	if !slices.Equal(got, w) {
		return fmt.Errorf("prints %v, BENCHMARK.json declares %v", got, w)
	}
	return nil
}
