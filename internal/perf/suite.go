package perf

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"hdlts/internal/core"
	"hdlts/internal/gen"
	"hdlts/internal/jobs"
	"hdlts/internal/obs"
	"hdlts/internal/registry"
	"hdlts/internal/sched"
	"hdlts/internal/server"
)

// Suite returns the canonical benchmark suite. Names are stable across
// releases: a renamed benchmark breaks the trajectory (it shows up as
// missing/new in every future diff), so rename only with cause.
func Suite() []Bench {
	// Hot-gated benches pin their iteration count ("Nx") rather than
	// inheriting the time-based default: testing.Benchmark carries a small
	// fixed allocation overhead per run, and amortising it over a
	// run-dependent N makes allocs/op wobble by ±1 between a full baseline
	// and a quick candidate. Identical N on both sides keeps the strict
	// zero-increase gate exact.
	return []Bench{
		{Name: "solver/hdlts/v1k", HotPath: true, Quick: true, Benchtime: "100x", F: solverBench("hdlts", 1000)},
		{Name: "solver/hdlts/v10k", HotPath: true, Quick: true, Benchtime: "10x", F: solverBench("hdlts", 10000)},
		// Not hot-gated: the traced twin of v10k, pricing the decision
		// stream with a tracer that drops every event.
		{Name: "solver/hdlts/v10k_traced", Quick: true, Benchtime: "10x", F: tracedBench(10000)},
		{Name: "solver/hdlts/v10k_steady", HotPath: true, Quick: true, Benchtime: "10x", F: steadyBench(10000)},
		{Name: "solver/hdlts/v100k", HotPath: true, Quick: true, Benchtime: "1x", F: solverBench("hdlts", 100000)},
		{Name: "solver/hdlts/v1m", HotPath: true, Benchtime: "1x", F: solverBench("hdlts", 1000000)},
		{Name: "solver/heft/v1k", HotPath: true, Quick: true, Benchtime: "100x", F: solverBench("heft", 1000)},
		{Name: "solver/heft/v10k", HotPath: true, Benchtime: "10x", F: solverBench("heft", 10000)},
		{Name: "solver/cpop/v1k", HotPath: true, Quick: true, Benchtime: "100x", F: solverBench("cpop", 1000)},
		{Name: "solver/pets/v1k", HotPath: true, Quick: true, Benchtime: "100x", F: solverBench("pets", 1000)},
		{Name: "solver/peft/v1k", HotPath: true, Quick: true, Benchtime: "100x", F: solverBench("peft", 1000)},
		{Name: "phase/timer_tick", HotPath: true, Quick: true, Benchtime: "500000x", F: phaseTickBench},
		// Not hot-gated: encoding/json's pooled encoder states make
		// allocs/op vary by ±1 with GC timing.
		{Name: "hash/canonical/v1k", Quick: true, F: hashBench(1000)},
		{Name: "wal/submit_fsync", Quick: true, F: walBench},
		{Name: "service/schedule_roundtrip", Quick: true, F: serviceBench},
	}
}

// Benchmark problems are deterministic (fixed seed per size) and cached:
// the trajectory must measure the solvers, not the generator, and two runs
// of the suite must schedule byte-identical inputs.
var (
	problemMu sync.Mutex
	problems  = map[int]*sched.Problem{}
)

func problem(v int) *sched.Problem {
	problemMu.Lock()
	defer problemMu.Unlock()
	if pr, ok := problems[v]; ok {
		return pr
	}
	rng := rand.New(rand.NewSource(7))
	pr, err := gen.Random(gen.Params{V: v, Alpha: 1.5, Density: 3, CCR: 2, Procs: 8, WDAG: 80, Beta: 1.2}, rng)
	if err != nil {
		panic(fmt.Sprintf("perf: generate %d-task problem: %v", v, err))
	}
	problems[v] = pr
	return pr
}

// solverBench times one registry algorithm over the fixed problem of the
// given size. One untimed warm-up run pays the one-time costs (metric
// series creation, lazily sized caches) so allocs/op measures steady state.
func solverBench(name string, v int) func(*testing.B) {
	return func(b *testing.B) { benchSolves(b, registry.MustGet(name), problem(v)) }
}

// discardTracer is an enabled tracer that drops every event: it makes the
// solver build its full decision stream without timing any sink.
type discardTracer struct{}

func (discardTracer) Enabled() bool  { return true }
func (discardTracer) Emit(obs.Event) {}

// tracedBench is solverBench("hdlts", v) on a traced problem, so the pair
// of benches isolates what observing a solve costs.
func tracedBench(v int) func(*testing.B) {
	return func(b *testing.B) {
		benchSolves(b, registry.MustGet("hdlts"), problem(v).WithTracer(discardTracer{}))
	}
}

// benchSolves times alg on pr after one untimed warm-up solve.
func benchSolves(b *testing.B, alg sched.Algorithm, pr *sched.Problem) {
	if _, err := alg.Schedule(pr); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alg.Schedule(pr); err != nil {
			b.Fatal(err)
		}
	}
}

// steadyBench times the allocation-free steady state of an HDLTS solve
// stream: ScheduleInto reuses the previous schedule's storage and the
// pooled arena, so after the warm-up solve the loop body performs zero heap
// allocations — the hot-gate pins allocs/op at 0, turning any regression
// into a blocking diff. MaxWorkers is 1 because the point is the per-solve
// allocation contract, not parallel throughput (worker hand-off is timed by
// the plain v10k bench, which uses the default options).
func steadyBench(v int) func(*testing.B) {
	return func(b *testing.B) {
		pr := problem(v)
		h := core.NewWithOptions(core.Options{MaxWorkers: 1})
		s, err := h.Schedule(pr)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if s, err = h.ScheduleInto(pr, s); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// hashBench times the content addressing the job subsystem keys its cache
// and coalescing on: canonical serialisation plus sha256.
func hashBench(v int) func(*testing.B) {
	return func(b *testing.B) {
		pr := problem(v)
		if _, err := server.CanonicalHash("HDLTS", pr); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := server.CanonicalHash("HDLTS", pr); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// phaseTickBench times one solver phase-timer tick boundary, the primitive
// the instrumented inner loops pay per iteration.
func phaseTickBench(b *testing.B) {
	prof := obs.SolverProfileFor("BENCH")
	acc := prof.Accum(obs.PhaseScan)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick := acc.Tick()
		tick.End()
	}
	acc.Flush()
}

// walBench times durable job admission: each Submit appends one record to
// the write-ahead log and fsyncs before returning, so ns/op is dominated
// by the WAL append+fsync path.
func walBench(b *testing.B) {
	dir, err := os.MkdirTemp("", "hdltsbench-wal-")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	done := json.RawMessage(`{"ok":true}`)
	m, err := jobs.Open(jobs.Config{
		Dir:        dir,
		Workers:    1,
		QueueDepth: b.N + 1,
		CacheSize:  1,
		Metrics:    obs.NewRegistry(),
		Run: func(context.Context, string, json.RawMessage) (json.RawMessage, error) {
			return done, nil
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := m.Close(ctx); err != nil {
			b.Error(err)
		}
	}()
	payload := json.RawMessage(`{"bench":true}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Unique hashes defeat the result cache and in-flight coalescing:
		// every iteration must take the durable path.
		if _, err := m.Submit("hdlts", fmt.Sprintf("bench-%d", i), payload); err != nil {
			b.Fatal(err)
		}
	}
}

// serviceBench times one synchronous POST /v1/schedule round trip through
// the full handler stack: decode, validate, queue, solve, encode.
func serviceBench(b *testing.B) {
	srv, err := server.New(server.Config{Metrics: obs.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			b.Error(err)
		}
	}()
	canon, err := server.CanonicalProblemJSON(problem(100))
	if err != nil {
		b.Fatal(err)
	}
	payload, err := json.Marshal(server.ScheduleRequest{Algorithm: "heft", Problem: canon})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(payload))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("POST /v1/schedule: status %d: %s", rec.Code, rec.Body.String())
		}
	}
}
