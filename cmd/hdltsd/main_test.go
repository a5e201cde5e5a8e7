package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"hdlts/internal/workflows"
)

// startDaemon runs the daemon on an ephemeral port and returns its base
// URL plus a stop function that triggers the drain path and waits for a
// clean exit.
func startDaemon(t *testing.T, o options) (string, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	o.Addr = "127.0.0.1:0"
	o.Quiet = true
	addrCh := make(chan string, 1)
	o.Ready = func(addr string) { addrCh <- addr }
	errCh := make(chan error, 1)
	go func() { errCh <- run(ctx, o) }()
	var addr string
	select {
	case addr = <-addrCh:
	case err := <-errCh:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("daemon never became ready")
	}
	stop := func() error {
		cancel()
		select {
		case err := <-errCh:
			return err
		case <-time.After(10 * time.Second):
			return fmt.Errorf("daemon did not exit after cancel")
		}
	}
	return "http://" + addr, stop
}

func fig1Request(t *testing.T) *bytes.Reader {
	t.Helper()
	var problem bytes.Buffer
	if err := workflows.PaperExample().WriteJSON(&problem); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{
		"algorithm": "hdlts",
		"problem":   json.RawMessage(problem.Bytes()),
	})
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(body)
}

func TestDaemonEndToEnd(t *testing.T) {
	base, stop := startDaemon(t, options{
		Timeout:      10 * time.Second,
		DrainTimeout: 10 * time.Second,
	})

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s = %d, want 200", path, resp.StatusCode)
		}
	}

	resp, err := http.Post(base+"/v1/schedule", "application/json", fig1Request(t))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("schedule = %d: %s", resp.StatusCode, b)
	}
	var out struct {
		Algorithm string  `json:"algorithm"`
		Makespan  float64 `json:"makespan"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Algorithm != "HDLTS" || out.Makespan != 73 {
		t.Errorf("got %s/%g over HTTP, want HDLTS/73", out.Algorithm, out.Makespan)
	}

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mbody), `hdltsd_schedule_seconds_count{alg="HDLTS"}`) {
		t.Errorf("/metrics missing schedule latency histogram:\n%s", mbody)
	}

	if err := stop(); err != nil {
		t.Fatalf("daemon exit: %v", err)
	}
}

func TestDaemonShutdownDrainsInFlight(t *testing.T) {
	base, stop := startDaemon(t, options{
		Timeout:      10 * time.Second,
		DrainTimeout: 10 * time.Second,
	})
	// A larger problem keeps a request plausibly in flight while we stop;
	// correctness here is that stop() never cuts it off (the server drains
	// admitted work), whatever the interleaving.
	type result struct {
		code int
		err  error
	}
	results := make(chan result, 4)
	for i := 0; i < 4; i++ {
		go func() {
			resp, err := http.Post(base+"/v1/schedule", "application/json", fig1Request(t))
			if err != nil {
				results <- result{err: err}
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			results <- result{code: resp.StatusCode}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	if err := stop(); err != nil {
		t.Fatalf("daemon exit: %v", err)
	}
	for i := 0; i < 4; i++ {
		r := <-results
		// Every request either completed (200), was refused cleanly while
		// draining (503), or was issued after the listener closed.
		if r.err == nil && r.code != http.StatusOK && r.code != http.StatusServiceUnavailable {
			t.Errorf("request finished with %d, want 200 or 503", r.code)
		}
	}
}

// TestDaemonObservabilitySurface drives the debug listener, the version
// endpoint, runtime telemetry, and request correlation end to end over
// real sockets: one X-Request-ID appears in the response header, the job
// record, and the replayed trace, while profiles are served only on the
// separate -debug-addr listener.
func TestDaemonObservabilitySurface(t *testing.T) {
	debugCh := make(chan string, 1)
	base, stop := startDaemon(t, options{
		Timeout:         10 * time.Second,
		DrainTimeout:    10 * time.Second,
		DebugAddr:       "127.0.0.1:0",
		DebugReady:      func(addr string) { debugCh <- addr },
		RuntimeInterval: 50 * time.Millisecond,
	})
	defer func() {
		if err := stop(); err != nil {
			t.Errorf("daemon exit: %v", err)
		}
	}()
	var debugBase string
	select {
	case addr := <-debugCh:
		debugBase = "http://" + addr
	case <-time.After(5 * time.Second):
		t.Fatal("debug listener never became ready")
	}

	// Correlated submission: fixed ID in, same ID everywhere out.
	const reqID = "daemon-e2e-trace-01"
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", jobRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("X-Request-ID"); got != reqID {
		t.Errorf("response X-Request-ID = %q, want %q", got, reqID)
	}
	var job struct {
		ID      string `json:"id"`
		TraceID string `json:"trace_id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if err != nil || job.ID == "" {
		t.Fatalf("submit: %v, job %+v", err, job)
	}
	if job.TraceID != reqID {
		t.Errorf("job trace_id = %q, want %q", job.TraceID, reqID)
	}
	// The trace endpoint replays spans and events under the same ID once
	// the job has run.
	deadline := time.Now().Add(5 * time.Second)
	for {
		tresp, err := http.Get(base + "/v1/jobs/" + job.ID + "/trace")
		if err != nil {
			t.Fatal(err)
		}
		tbody, _ := io.ReadAll(tresp.Body)
		tresp.Body.Close()
		if tresp.StatusCode == http.StatusOK {
			var tr struct {
				TraceID string `json:"trace_id"`
				Spans   []struct {
					Name string `json:"name"`
				} `json:"spans"`
				Events []json.RawMessage `json:"events"`
			}
			if err := json.Unmarshal(tbody, &tr); err != nil {
				t.Fatal(err)
			}
			if tr.TraceID != reqID {
				t.Errorf("trace id = %q, want %q", tr.TraceID, reqID)
			}
			hasRun := false
			for _, sp := range tr.Spans {
				if sp.Name == "schedule.run" {
					hasRun = true
				}
			}
			if hasRun && len(tr.Events) > 0 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace never complete: %d %s", tresp.StatusCode, tbody)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// /v1/version identifies the binary.
	vresp, err := http.Get(base + "/v1/version")
	if err != nil {
		t.Fatal(err)
	}
	var v struct {
		GoVersion  string   `json:"go_version"`
		Algorithms []string `json:"algorithms"`
	}
	err = json.NewDecoder(vresp.Body).Decode(&v)
	vresp.Body.Close()
	if err != nil || v.GoVersion == "" || len(v.Algorithms) == 0 {
		t.Errorf("/v1/version = %+v, err %v", v, err)
	}

	// Runtime telemetry flows into /metrics.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{"hdltsd_runtime_goroutines", "hdltsd_build_info{"} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Profiles live on the debug listener only.
	presp, err := http.Get(debugBase + "/debug/pprof/goroutine?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	pbody, _ := io.ReadAll(presp.Body)
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK || !strings.Contains(string(pbody), "goroutine profile") {
		t.Errorf("debug goroutine profile = %d:\n%.200s", presp.StatusCode, pbody)
	}
	sresp, err := http.Get(base + "/debug/pprof/goroutine")
	if err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusNotFound {
		t.Errorf("service port serves profiles (%d), must 404", sresp.StatusCode)
	}
}

// jobRequest is fig1Request in the single-job form of POST /v1/jobs.
func jobRequest(t *testing.T) *bytes.Reader {
	t.Helper()
	r := fig1Request(t)
	b, _ := io.ReadAll(r)
	return bytes.NewReader(b)
}

// TestDaemonJobsPersistAcrossRestart drives the -jobs-dir flags end to
// end: a job submitted to one daemon is still queryable — done, correct
// makespan, served from the store without re-solving — after a second
// daemon starts on the same directory, and resubmitting the same problem
// is a cache hit.
func TestDaemonJobsPersistAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	opts := options{
		Timeout:      10 * time.Second,
		DrainTimeout: 10 * time.Second,
		JobsDir:      dir,
		JobsTTL:      time.Hour,
	}
	base, stop := startDaemon(t, opts)

	resp, err := http.Post(base+"/v1/jobs", "application/json", jobRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	var job struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	err = json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if err != nil || job.ID == "" {
		t.Fatalf("submit answered %d, job %+v, err %v", resp.StatusCode, job, err)
	}
	waitDone := func() (makespan float64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			resp, err := http.Get(base + "/v1/jobs/" + job.ID)
			if err != nil {
				t.Fatal(err)
			}
			var v struct {
				State  string `json:"state"`
				Result struct {
					Makespan float64 `json:"makespan"`
				} `json:"result"`
			}
			err = json.NewDecoder(resp.Body).Decode(&v)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if v.State == "done" {
				return v.Result.Makespan
			}
			if time.Now().After(deadline) {
				t.Fatalf("job stuck in state %s", v.State)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if ms := waitDone(); ms != 73 {
		t.Errorf("makespan = %g, want 73", ms)
	}
	if err := stop(); err != nil {
		t.Fatalf("first daemon exit: %v", err)
	}

	// Second daemon, same store: the finished job is served from the WAL.
	base, stop = startDaemon(t, opts)
	defer func() {
		if err := stop(); err != nil {
			t.Errorf("second daemon exit: %v", err)
		}
	}()
	if ms := waitDone(); ms != 73 {
		t.Errorf("recovered makespan = %g, want 73", ms)
	}

	// Resubmitting the identical problem is answered from the result cache.
	resp, err = http.Post(base+"/v1/jobs", "application/json", jobRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	var again struct {
		State    string `json:"state"`
		CacheHit bool   `json:"cache_hit"`
	}
	err = json.NewDecoder(resp.Body).Decode(&again)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !again.CacheHit || again.State != "done" {
		t.Errorf("resubmit = %d %+v, want 200 done cache_hit", resp.StatusCode, again)
	}
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mbody), "hdltsd_jobs_cache_hits_total 1") {
		t.Errorf("/metrics missing cache hit counter:\n%s", mbody)
	}
}

// TestDaemonWorkflowsResumeAcrossRestart drives the execution subsystem
// through the daemon: a workflow whose middle step blocks is interrupted by
// a daemon restart, and the second daemon — same -workflows-dir — resumes
// it under the original trace ID without re-running the completed step.
func TestDaemonWorkflowsResumeAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	marks := t.TempDir()
	opts := options{
		Timeout:      10 * time.Second,
		DrainTimeout: 10 * time.Second,
		WorkflowsDir: dir,
	}
	base, stop := startDaemon(t, opts)

	// Each step appends one line to its marker file, so line counts are
	// execution counts. "mid" blocks until the release file appears —
	// created only after the restart.
	yaml := fmt.Sprintf(`name: restartable
procs: 1
steps:
  - name: first
    command: echo run >> %[1]s/first
    cost: 0.05
  - name: mid
    command: echo run >> %[1]s/mid; while [ ! -f %[1]s/go ]; do sleep 0.05; done
    depends: [first]
    cost: 0.05
  - name: last
    command: echo run >> %[1]s/last
    depends: [mid]
    cost: 0.05
`, marks)

	resp, err := http.Post(base+"/v1/workflows", "application/yaml", strings.NewReader(yaml))
	if err != nil {
		t.Fatal(err)
	}
	var wf struct {
		ID      string `json:"id"`
		TraceID string `json:"trace_id"`
		State   string `json:"state"`
		Replans int    `json:"replans"`
		Steps   []struct {
			Name  string `json:"name"`
			State string `json:"state"`
		} `json:"steps"`
	}
	err = json.NewDecoder(resp.Body).Decode(&wf)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted || wf.ID == "" {
		t.Fatalf("submit answered %d, workflow %+v, err %v", resp.StatusCode, wf, err)
	}
	traceID := wf.TraceID

	getWF := func() {
		t.Helper()
		resp, err := http.Get(base + "/v1/workflows/" + wf.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&wf)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	stepState := func(name string) string {
		for _, s := range wf.Steps {
			if s.Name == name {
				return s.State
			}
		}
		return ""
	}
	// "running" is recorded at dispatch, possibly before mid's shell has
	// appended its marker line (the file exists, empty, between the
	// shell's open and its write), so also wait for the line: stopping
	// earlier would kill an attempt that never counted as a run.
	deadline := time.Now().Add(10 * time.Second)
	for {
		getWF()
		if stepState("first") == "done" && stepState("mid") == "running" {
			if b, err := os.ReadFile(marks + "/mid"); err == nil && strings.Contains(string(b), "run") {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("workflow never reached mid-run shape: %+v", wf)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Interrupt mid-workflow. The drain kills mid's shell; the record stays
	// running in the WAL.
	if err := stop(); err != nil {
		t.Fatalf("first daemon exit: %v", err)
	}

	// Let the resumed attempt finish promptly, then restart over the store.
	if err := os.WriteFile(marks+"/go", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	base, stop = startDaemon(t, opts)
	defer func() {
		if err := stop(); err != nil {
			t.Errorf("second daemon exit: %v", err)
		}
	}()
	deadline = time.Now().Add(10 * time.Second)
	for {
		getWF()
		if wf.State == "done" {
			break
		}
		if wf.State == "failed" || wf.State == "cancelled" || time.Now().After(deadline) {
			t.Fatalf("workflow did not finish after restart: %+v", wf)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if wf.TraceID != traceID {
		t.Errorf("trace ID changed across restart: %q -> %q", traceID, wf.TraceID)
	}
	if wf.Replans < 1 {
		t.Errorf("replans = %d, want >= 1 (resume re-plans the frontier)", wf.Replans)
	}
	counts := map[string]int{}
	for _, name := range []string{"first", "mid", "last"} {
		b, err := os.ReadFile(marks + "/" + name)
		if err != nil {
			t.Fatalf("marker %s: %v", name, err)
		}
		counts[name] = strings.Count(string(b), "run")
	}
	if counts["first"] != 1 {
		t.Errorf("completed step re-executed: first ran %d times", counts["first"])
	}
	if counts["mid"] != 2 {
		t.Errorf("interrupted step ran %d times, want 2", counts["mid"])
	}
	if counts["last"] != 1 {
		t.Errorf("last ran %d times, want 1", counts["last"])
	}
	// The resumed run traced under the original request ID. The run's
	// workflow.run span finishes after the record reads done, so poll
	// until the deadline before judging the trace.
	var tbody []byte
	for {
		tresp, err := http.Get(base + "/v1/traces/" + traceID)
		if err != nil {
			t.Fatal(err)
		}
		tbody, _ = io.ReadAll(tresp.Body)
		tresp.Body.Close()
		if tresp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/traces/%s = %d after restart", traceID, tresp.StatusCode)
		}
		if strings.Contains(string(tbody), "workflow.run") || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !strings.Contains(string(tbody), "workflow.run") || !strings.Contains(string(tbody), "step.run") {
		t.Errorf("resumed trace missing execution spans:\n%s", tbody)
	}
}
