// Package server turns the scheduling library into a long-running
// HTTP/JSON service. POST /v1/schedule accepts a problem in the same JSON
// form the CLI tools exchange, runs any registered algorithm on a bounded
// worker pool, and returns the schedule plus the paper's metrics;
// GET /healthz, /readyz, and /metrics expose liveness, drain state, and
// the obs metrics registry in Prometheus text form.
//
// The handler is production-shaped rather than a demo mux: admission is
// non-blocking (a full queue answers 429 immediately), request bodies are
// size-capped, every schedule request carries a deadline, decision events
// can be captured per request via a request-scoped Tracer, and shutdown
// drains — every admitted request completes before Shutdown returns.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"hdlts/internal/core"
	"hdlts/internal/exec"
	"hdlts/internal/explain"
	"hdlts/internal/jobs"
	"hdlts/internal/metrics"
	"hdlts/internal/obs"
	"hdlts/internal/registry"
	"hdlts/internal/sched"
)

// Config tunes a Server. The zero value is served with sensible defaults,
// so server.New(server.Config{}) is a working daemon handler.
type Config struct {
	// Workers is the number of concurrent scheduling workers
	// (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the backlog of admitted-but-not-running requests;
	// beyond it the server answers 429 (default 64).
	QueueDepth int
	// RequestTimeout caps queue wait plus scheduling per request; on expiry
	// the client gets 504 (default 30s).
	RequestTimeout time.Duration
	// MaxBodyBytes caps the request body; larger bodies get 413
	// (default 8 MiB).
	MaxBodyBytes int64
	// Metrics receives request counters, the in-flight gauge, queue depth,
	// and per-algorithm latency histograms (default obs.Default()).
	Metrics *obs.Registry
	// AccessLog, when non-nil, receives one structured record per request.
	AccessLog *slog.Logger
	// Lookup resolves algorithm names (default registry.Get). Override to
	// serve custom algorithms or to stub scheduling in tests.
	Lookup func(name string) (sched.Algorithm, error)
	// TraceBuffer bounds how many request traces — span trees plus decision
	// events, keyed by X-Request-ID — the in-memory ring retains for
	// GET /v1/jobs/{id}/trace and GET /v1/traces/{id} (default 512).
	TraceBuffer int
	// TraceSample records one in every N scheduling requests into the trace
	// ring (default 1 = every request); raise it to shed tracing cost at
	// high QPS. Request-ID adoption and echo are unaffected.
	TraceSample int
	// Jobs tunes the asynchronous job subsystem behind POST /v1/jobs:
	// store directory (empty = memory-only), workers, queue depth, retry
	// policy, TTL, cache size. Metrics and Run are wired by the server and
	// need not be set.
	Jobs jobs.Config
	// Workflows tunes the live execution engine behind POST /v1/workflows:
	// store directory (empty = memory-only), step runner, overdue tick.
	// Metrics, Traces, and Stream are wired by the server and need not be
	// set.
	Workflows exec.Config
	// StreamBuffer is the per-subscriber event buffer of the SSE endpoints;
	// a subscriber that falls this many events behind loses the oldest and
	// receives a stream.drop marker (default 256).
	StreamBuffer int
	// StreamHeartbeat is the keepalive interval of idle SSE streams — a
	// comment line that keeps proxies from severing the connection
	// (default 15s).
	StreamHeartbeat time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.Metrics == nil {
		c.Metrics = obs.Default()
	}
	if c.Lookup == nil {
		c.Lookup = registry.Get
	}
	if c.TraceBuffer <= 0 {
		c.TraceBuffer = 512
	}
	if c.TraceSample <= 0 {
		c.TraceSample = 1
	}
	if c.StreamBuffer <= 0 {
		c.StreamBuffer = obs.DefaultStreamBuffer
	}
	if c.StreamHeartbeat <= 0 {
		c.StreamHeartbeat = 15 * time.Second
	}
	return c
}

// Metric series registered by this package.
const (
	metricHTTPRequests    = "hdltsd_http_requests_total"
	metricHTTPSeconds     = "hdltsd_http_request_seconds"
	metricHTTPInFlight    = "hdltsd_http_in_flight"
	metricQueueDepth      = "hdltsd_queue_depth"
	metricScheduleSeconds = "hdltsd_schedule_seconds"
	metricScheduleErrors  = "hdltsd_schedule_errors_total"
	metricJobsErrors      = "hdltsd_jobs_errors_total"
	metricWorkflowErrors  = "hdltsd_workflow_errors_total"
	metricTraceErrors     = "hdltsd_trace_errors_total"
)

// Server is the daemon's http.Handler. Create one with New, embed it in any
// http.Server (or mount it under a prefix), and call Shutdown to drain.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	pool   *pool
	jobs   *jobs.Manager
	wfs    *exec.Engine
	traces *obs.TraceStore
	stream *obs.Hub
	build  obs.BuildInfo

	draining chan struct{} // closed by Drain

	inFlight   *obs.Gauge
	queueDepth *obs.Gauge
}

// New builds a ready-to-serve Server from cfg. The only failure mode is
// the job store: an unreadable/corrupt -jobs-dir must stop the daemon at
// startup, not at the first submission.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	// Request latencies span four orders of magnitude (a µs-scale cached
	// job lookup to a seconds-scale 100k-task solve); the default decade
	// buckets cannot resolve the low end, so both daemon histograms use
	// log-spaced buckets from 10µs to 10s.
	cfg.Metrics.SetBuckets(metricHTTPSeconds, obs.ExpBuckets(1e-5, 10, 3))
	cfg.Metrics.SetBuckets(metricScheduleSeconds, obs.ExpBuckets(1e-5, 10, 3))
	s := &Server{
		cfg:        cfg,
		mux:        http.NewServeMux(),
		traces:     obs.NewTraceStore(cfg.TraceBuffer, cfg.TraceSample),
		build:      obs.RegisterBuildInfo(cfg.Metrics),
		draining:   make(chan struct{}),
		inFlight:   cfg.Metrics.Gauge(metricHTTPInFlight),
		queueDepth: cfg.Metrics.Gauge(metricQueueDepth),
	}
	// The live stream: every finished span and decision event in the trace
	// ring republishes on the hub, and the workflow engine publishes its
	// transitions directly — the SSE endpoints fan it out.
	s.stream = obs.NewHub(cfg.Metrics, cfg.StreamBuffer)
	s.traces.AttachHub(s.stream)
	s.pool = newPool(cfg.Workers, cfg.QueueDepth, s.queueDepth)
	jcfg := cfg.Jobs
	jcfg.Metrics = cfg.Metrics
	jcfg.Run = s.runJobFunc
	mgr, err := jobs.Open(jcfg)
	if err != nil {
		s.pool.close()
		return nil, err
	}
	s.jobs = mgr
	wcfg := cfg.Workflows
	wcfg.Metrics = cfg.Metrics
	wcfg.Traces = s.traces
	wcfg.Stream = s.stream
	eng, err := exec.Open(wcfg)
	if err != nil {
		s.pool.close()
		//lint:hdltsvet-ignore ctxflow constructor unwind has no caller context; bound the job-manager teardown locally
		cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = mgr.Close(cctx)
		return nil, err
	}
	s.wfs = eng
	s.mux.HandleFunc("POST /v1/schedule", s.handleSchedule)
	s.mux.HandleFunc("GET /v1/algorithms", s.handleAlgorithms)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("POST /v1/workflows", s.handleWorkflowSubmit)
	s.mux.HandleFunc("GET /v1/workflows", s.handleWorkflowList)
	s.mux.HandleFunc("GET /v1/workflows/{id}", s.handleWorkflowGet)
	s.mux.HandleFunc("DELETE /v1/workflows/{id}", s.handleWorkflowCancel)
	s.mux.HandleFunc("GET /v1/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/workflows/{id}/events", s.handleWorkflowEvents)
	s.mux.HandleFunc("GET /v1/workflows/{id}/explain", s.handleWorkflowExplain)
	s.mux.HandleFunc("GET /v1/workflows/{id}/gantt.svg", s.handleWorkflowGantt)
	s.mux.HandleFunc("GET /v1/traces/{id}", s.handleTraceGet)
	s.mux.HandleFunc("GET /v1/version", s.handleVersion)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// Jobs exposes the job manager (facade re-export and tests).
func (s *Server) Jobs() *jobs.Manager { return s.jobs }

// Workflows exposes the execution engine (facade re-export and tests).
func (s *Server) Workflows() *exec.Engine { return s.wfs }

// ServeHTTP implements http.Handler with request correlation, accounting,
// and access logging around the route table. Every response — including
// 429/504/4xx error paths — echoes the request's correlation ID in
// X-Request-ID: adopted from the client's header when well-formed,
// generated otherwise. The same ID is the trace ID for the span tree and
// decision events the scheduling paths record, the request_id of the
// access-log line, and the trace_id persisted on submitted jobs.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.inFlight.Inc()
	defer s.inFlight.Dec()
	reqID := requestID(r)
	w.Header().Set("X-Request-ID", reqID)
	ctx := obs.WithTraceStore(obs.WithTraceID(r.Context(), reqID), s.traces)
	var root *obs.Span
	if tracedRoute(r) {
		s.traces.Start(reqID)
		ctx, root = obs.StartSpan(ctx, "http.request",
			obs.KeyMethod, r.Method, obs.KeyPath, r.URL.Path)
	}
	r = r.WithContext(ctx)
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	s.mux.ServeHTTP(rec, r)
	if root != nil {
		root.SetAttr(obs.KeyStatus, strconv.Itoa(rec.status))
		root.Finish()
	}
	elapsed := time.Since(start)
	s.cfg.Metrics.Counter(metricHTTPRequests,
		"path", r.URL.Path, "code", fmt.Sprint(rec.status)).Inc()
	s.cfg.Metrics.Histogram(metricHTTPSeconds, "path", r.URL.Path).
		Observe(elapsed.Seconds())
	if s.cfg.AccessLog != nil {
		s.cfg.AccessLog.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"bytes", rec.bytes,
			"duration_ms", float64(elapsed.Microseconds())/1000,
			"remote", r.RemoteAddr,
			"request_id", reqID,
		)
	}
}

// requestID adopts the client's X-Request-ID when well-formed and
// generates a fresh ID otherwise, so the correlation chain never depends
// on client cooperation.
func requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-ID"); validRequestID(id) {
		return id
	}
	return obs.NewTraceID()
}

// validRequestID accepts 1–128 characters of [A-Za-z0-9._:-] — enough for
// every common request-ID convention (UUIDs, ULIDs, hex) while keeping
// log lines and label values injection-free.
func validRequestID(id string) bool {
	if id == "" || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		switch c := id[i]; {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.', c == ':':
		default:
			return false
		}
	}
	return true
}

// tracedRoute reports whether the request does scheduling work worth a
// trace-ring entry; probes and scrapes are correlated (header + log) but
// not recorded.
func tracedRoute(r *http.Request) bool {
	return r.Method == http.MethodPost &&
		(r.URL.Path == "/v1/schedule" || r.URL.Path == "/v1/jobs" ||
			r.URL.Path == "/v1/workflows")
}

// Drain flips /readyz to 503 and refuses new schedule requests, without
// waiting for in-flight work. Call it first on SIGTERM so load balancers
// stop routing here while the http.Server drains.
func (s *Server) Drain() {
	select {
	case <-s.draining:
	default:
		close(s.draining)
	}
}

// Shutdown drains and then waits for every admitted request to finish —
// and for job workers to commit their current job — or for ctx to expire.
// After Shutdown the Server answers every schedule request with 503.
// Unfinished jobs stay in the durable store and are recovered by the next
// daemon with the same jobs directory.
func (s *Server) Shutdown(ctx context.Context) error {
	s.Drain()
	done := make(chan struct{})
	go func() {
		s.pool.close()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("server: shutdown: %w", ctx.Err())
	}
	// Workflow runs, like jobs, survive in their durable store: Close kills
	// step commands but leaves unfinished workflows resumable.
	jerr := s.jobs.Close(ctx)
	if werr := s.wfs.Close(ctx); werr != nil {
		return werr
	}
	return jerr
}

// isDraining reports whether Drain has been called.
func (s *Server) isDraining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// scheduleOutcome carries one worker result back to its handler.
type scheduleOutcome struct {
	resp   *ScheduleResponse
	status int
	err    error
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		s.scheduleError(w, http.StatusServiceUnavailable, "drain",
			errors.New("server is shutting down"))
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	req, pr, err := decodeScheduleRequest(r.Body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.scheduleError(w, http.StatusRequestEntityTooLarge, "body_too_large", err)
			return
		}
		s.scheduleError(w, http.StatusBadRequest, "bad_request", err)
		return
	}
	name := req.Algorithm
	if name == "" {
		name = "hdlts"
	}
	alg, err := s.cfg.Lookup(name)
	if err != nil {
		s.scheduleError(w, http.StatusBadRequest, "unknown_algorithm", err)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	// The worker traces under the request's context values (trace ID and
	// store survive handler return and cancellation) but not its deadline:
	// an admitted request runs to completion even when the client timed out.
	rctx := r.Context()
	// The buffer lets the worker complete and move on even when this
	// handler has already given up on the deadline.
	done := make(chan scheduleOutcome, 1)
	explain := r.URL.Query().Get("explain") == "1"
	admitted := s.pool.trySubmit(func() {
		done <- s.runSchedule(rctx, alg, pr, req.Trace, explain)
	})
	if !admitted {
		if s.isDraining() {
			s.scheduleError(w, http.StatusServiceUnavailable, "drain",
				errors.New("server is shutting down"))
			return
		}
		w.Header().Set("Retry-After", strconv.Itoa(
			s.retryAfterSeconds(alg.Name(), s.cfg.QueueDepth, s.cfg.Workers)))
		s.scheduleError(w, http.StatusTooManyRequests, "saturated",
			fmt.Errorf("queue full (%d queued, %d workers)", s.cfg.QueueDepth, s.cfg.Workers))
		return
	}
	select {
	case out := <-done:
		if out.err != nil {
			s.scheduleError(w, out.status, "schedule", out.err)
			return
		}
		writeJSON(w, http.StatusOK, out.resp)
	case <-ctx.Done():
		s.scheduleError(w, http.StatusGatewayTimeout, "timeout",
			fmt.Errorf("request exceeded %s: %w", s.cfg.RequestTimeout, ctx.Err()))
	}
}

// runSchedule executes one admitted request inside a worker: schedule,
// validate, evaluate, and encode, with the per-algorithm latency histogram
// observing only time spent here (queue wait is visible as the gap to
// hdltsd_http_request_seconds). ctx carries the request's trace identity:
// when the trace is retained, each phase records a span and the
// scheduler's decision events land in the trace ring — the replayable
// "why was this mapping chosen" record behind the trace endpoints.
func (s *Server) runSchedule(ctx context.Context, alg sched.Algorithm, pr *sched.Problem, trace, explainReq bool) scheduleOutcome {
	ctx, run := obs.StartSpan(ctx, "schedule.run", obs.KeyAlg, alg.Name())
	defer run.Finish()
	start := time.Now()
	prA := pr
	var sink *obs.JSONLSink
	var events bytes.Buffer
	var tracers []obs.Tracer
	if trace {
		sink = obs.NewJSONL(&events)
		tracers = append(tracers, sink)
	}
	if st := obs.TraceStoreFrom(ctx); st != nil {
		tracers = append(tracers, st.Tracer(obs.TraceIDFrom(ctx)))
	}
	if tr := obs.Multi(tracers...); tr != obs.Nop {
		prA = pr.WithTracer(obs.Named(tr, alg.Name()))
	}
	_, solve := obs.StartSpan(ctx, "schedule.solve")
	var sc *sched.Schedule
	var decisions []core.Decision
	var err error
	// pprof goroutine labels make CPU profiles from the -debug-addr
	// listener attribute solve samples to {algorithm, phase}; solver-
	// internal Profile.Do calls refine phase further while they run.
	obs.WithPprofLabels(ctx, alg.Name(), "solve", func(context.Context) {
		if ex, ok := alg.(explain.Explainer); explainReq && ok {
			// Explain solves run the same engine with the decision record
			// kept: same schedule bytes, and the same decision events reach
			// the trace ring as on a plain solve.
			sc, decisions, err = ex.ScheduleExplained(prA)
		} else {
			sc, err = alg.Schedule(prA)
		}
	})
	solve.Finish()
	if err != nil {
		return scheduleOutcome{status: http.StatusInternalServerError,
			err: fmt.Errorf("%s: %w", alg.Name(), err)}
	}
	_, validate := obs.StartSpan(ctx, "schedule.validate")
	err = sc.Validate()
	validate.Finish()
	if err != nil {
		return scheduleOutcome{status: http.StatusInternalServerError,
			err: fmt.Errorf("%s produced an invalid schedule: %w", alg.Name(), err)}
	}
	_, eval := obs.StartSpan(ctx, "schedule.evaluate")
	res, err := metrics.Evaluate(alg.Name(), sc)
	eval.Finish()
	if err != nil {
		// Degenerate but decodable problems (e.g. an all-zero critical
		// path) schedule fine yet have no defined SLR: the data, not the
		// server, is at fault.
		return scheduleOutcome{status: http.StatusUnprocessableEntity,
			err: fmt.Errorf("evaluate: %w", err)}
	}
	_, encode := obs.StartSpan(ctx, "schedule.encode")
	raw, err := encodeSchedule(sc, alg.Name())
	encode.Finish()
	if err != nil {
		return scheduleOutcome{status: http.StatusInternalServerError, err: err}
	}
	elapsed := time.Since(start).Seconds()
	s.cfg.Metrics.Histogram(metricScheduleSeconds, "alg", alg.Name()).Observe(elapsed)
	resp := &ScheduleResponse{
		Algorithm:      res.Algorithm,
		Tasks:          pr.NumTasks(),
		Procs:          pr.NumProcs(),
		Makespan:       res.Makespan,
		SLR:            res.SLR,
		Speedup:        res.Speedup,
		Efficiency:     res.Efficiency,
		Duplicates:     res.Duplicates,
		Schedule:       raw,
		ElapsedSeconds: elapsed,
	}
	if sink != nil {
		if err := sink.Flush(); err != nil {
			return scheduleOutcome{status: http.StatusInternalServerError,
				err: fmt.Errorf("event stream: %w", err)}
		}
		resp.Events = splitJSONL(events.Bytes())
	}
	if explainReq {
		_, ex := obs.StartSpan(ctx, "schedule.explain")
		rep, rerr := explain.Schedule(sc, alg.Name(), decisions)
		ex.Finish()
		if rerr != nil {
			return scheduleOutcome{status: http.StatusInternalServerError,
				err: fmt.Errorf("explain: %w", rerr)}
		}
		raw, rerr := json.Marshal(rep)
		if rerr != nil {
			return scheduleOutcome{status: http.StatusInternalServerError,
				err: fmt.Errorf("explain: %w", rerr)}
		}
		resp.Explain = raw
	}
	return scheduleOutcome{resp: resp, status: http.StatusOK}
}

func (s *Server) handleAlgorithms(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{
		"paper":    registry.Names(),
		"extended": registry.ExtendedNames(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.isDraining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.cfg.Metrics.WritePrometheus(w); err != nil && s.cfg.AccessLog != nil {
		s.cfg.AccessLog.Error("metrics exposition failed", "err", err)
	}
}

// scheduleError answers one failed schedule request and bumps the matching
// error counter.
func (s *Server) scheduleError(w http.ResponseWriter, status int, reason string, err error) {
	s.cfg.Metrics.Counter(metricScheduleErrors, "reason", reason).Inc()
	writeJSON(w, status, ErrorResponse{Error: err.Error(), Status: status})
}

// writeJSON renders v as the complete response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// statusRecorder captures the status code and body size for accounting.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	n, err := r.ResponseWriter.Write(b)
	r.bytes += n
	return n, err
}

// Unwrap exposes the underlying writer so http.NewResponseController can
// reach Flush — the SSE endpoints depend on per-event flushing through
// this wrapper.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }
