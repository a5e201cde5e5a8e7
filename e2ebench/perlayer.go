package main

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	hexec "hdlts/internal/exec"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics and perLayerMetrics list every metric in report order.
// BENCHMARK.json names the same sets; the self-test holds them together.
var endToEndMetrics = []metricDef{
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"throughput_ops_s", "1/s"},
	{"server_cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

var perLayerMetrics = []metricDef{
	{"server.envelope_decode_ms", "ms"},
	{"sched.decode_ms", "ms"},
	{"sched.decode_alloc_mb", "MB"},
	{"server.canonical_hash_ms", "ms"},
	{"core.solve_ms", "ms"},
	{"core.solve_traced_ms", "ms"},
	{"obs.trace_events", "count"},
	{"obs.trace_kept_ratio", "ratio"},
	{"sched.validate_ms", "ms"},
	{"metrics.evaluate_ms", "ms"},
	{"sched.encode_ms", "ms"},
	{"server.response_encode_ms", "ms"},
	{"server.outside_worker_ms", "ms"},
	{"server.unattributed_ms", "ms"},
	{"jobs.submit_ms", "ms"},
	{"jobs.cache_hit_ratio", "ratio"},
	{"jobs.coalesced_ratio", "ratio"},
	{"jobs.queue_wait_ms", "ms"},
	{"jobs.run_ms", "ms"},
	{"exec.decode_ms", "ms"},
	{"exec.compile_ms", "ms"},
	{"exec.submit_ms", "ms"},
	{"exec.dispatch_gap_p50_ms", "ms"},
	{"exec.dispatch_gap_tail_ms", "ms"},
	{"exec.spawn_overhead_ms", "ms"},
	{"exec.queue_wait_ms", "ms"},
	{"exec.replans", "count"},
	{"loadgen.lag_p99_ms", "ms"},
	{"bench.span_overhead_pct", "%"},
}

// daemonPath lists the replayed layers a POST /v1/schedule request runs
// through in the daemon, which traces every request by default; the part
// of the end-to-end median they do not explain is server.unattributed_ms.
var daemonPath = []string{
	"server.envelope_decode", "sched.decode", "core.solve_traced",
	"sched.validate", "metrics.evaluate", "sched.encode", "server.response_encode",
}

// fill orders measured values by defs; a metric without a value is NaN.
func fill(defs []metricDef, v map[string]float64) metricSet {
	var s metricSet
	for _, m := range defs {
		x, ok := v[m.name]
		if !ok {
			x = math.NaN()
		}
		s = append(s, namedMetric{m.name, metric{x, m.unit}})
	}
	return s
}

// perLayer derives the per-layer metrics from the load's samples and the
// traced replay. A metric that does not apply to the workload is NaN.
func perLayer(k kind, in *inputs, samples []sample, lagMs, outside []float64, e2eP50 float64, rr *replayResult) metricSet {
	v := map[string]float64{}
	if rr != nil {
		self := rr.rec.selfTimes()
		for name, xs := range self {
			if name != "request" {
				v[name+"_ms"] = median(xs)
			}
		}
		for name, xs := range rr.rec.countValues() {
			v[name] = median(xs)
		}
		v["bench.span_overhead_pct"] = rr.overheadPct()
		if k == kindSchedule {
			sum := 0.0
			for _, name := range daemonPath {
				sum += median(self[name])
			}
			v["server.unattributed_ms"] = e2eP50 - sum
		}
	}
	switch k {
	case kindSchedule:
		v["server.outside_worker_ms"] = median(outside)
	case kindJobs:
		jobsLayer(v, samples)
		v["loadgen.lag_p99_ms"] = nearestRank(lagMs, 99)
	case kindWorkflow:
		execLayer(v, samples, in)
	}
	return fill(perLayerMetrics, v)
}

// jobsLayer reads cache and coalescing ratios from the submissions, and
// queue wait and run time from the jobs the daemon actually ran.
func jobsLayer(v map[string]float64, samples []sample) {
	var hits, coalesced, n int
	var wait, runT []float64
	for _, s := range samples {
		n++
		if s.cacheHit {
			hits++
		}
		if s.coalesced {
			coalesced++
		}
		if s.failed || s.cacheHit || s.coalesced || s.job.StartedAt == nil || s.job.FinishedAt == nil {
			continue
		}
		wait = append(wait, ms(s.job.StartedAt.Sub(s.job.SubmittedAt)))
		runT = append(runT, ms(s.job.FinishedAt.Sub(*s.job.StartedAt)))
	}
	if n > 0 {
		v["jobs.cache_hit_ratio"] = float64(hits) / float64(n)
		v["jobs.coalesced_ratio"] = float64(coalesced) / float64(n)
	}
	v["jobs.queue_wait_ms"] = median(wait)
	v["jobs.run_ms"] = median(runT)
}

// execLayer reads executor behaviour from the finished workflow records:
// the gap between a step becoming dispatchable and starting, how much
// longer a step ran than its sleep, head-of-line queue wait, and re-plans.
func execLayer(v map[string]float64, samples []sample, in *inputs) {
	var gaps, spawn, wait, replans []float64
	for _, s := range samples {
		if s.failed {
			continue
		}
		wf, rec := in.wfs[s.input], s.wf
		replans = append(replans, float64(rec.Replans))
		byName := make(map[string]int, len(rec.Steps))
		for i, st := range rec.Steps {
			byName[st.Name] = i
		}
		var start time.Time
		if rec.StartedAt != nil {
			start = *rec.StartedAt
		}
		// A step may start once its dependencies have finished and the
		// step before it on the same processor slot has left.
		prevOnProc := make(map[int]time.Time)
		for _, i := range stepsByStart(rec.Steps) {
			st := rec.Steps[i]
			ready, ok := prevOnProc[st.Proc]
			if !ok {
				ready = start
			}
			for _, d := range wf.Steps[i].Depends {
				if f := rec.Steps[byName[d]].FinishedAt; f.After(ready) {
					ready = f
				}
			}
			prevOnProc[st.Proc] = st.FinishedAt
			gaps = append(gaps, ms(st.StartedAt.Sub(ready)))
			if sleep, ok := sleepSeconds(wf.Steps[i].Command); ok {
				spawn = append(spawn, (st.ObservedSeconds-sleep)*1000)
			}
			wait = append(wait, st.QueueWaitSeconds*1000)
		}
	}
	v["exec.dispatch_gap_p50_ms"] = median(gaps)
	v["exec.dispatch_gap_tail_ms"], _, _ = tail(gaps)
	v["exec.spawn_overhead_ms"] = median(spawn)
	v["exec.queue_wait_ms"] = median(wait)
	v["exec.replans"] = median(replans)
}

// stepsByStart returns step indices in the order the steps started.
func stepsByStart(steps []hexec.StepStatus) []int {
	idx := make([]int, len(steps))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return steps[idx[a]].StartedAt.Before(steps[idx[b]].StartedAt)
	})
	return idx
}

// sleepSeconds parses the commanded duration of a "sleep <seconds>" step.
func sleepSeconds(cmd string) (float64, bool) {
	arg, ok := strings.CutPrefix(strings.TrimSpace(cmd), "sleep ")
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(arg), 64)
	return f, err == nil
}
