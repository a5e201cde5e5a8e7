package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"time"

	hexec "hdlts/internal/exec"
	"hdlts/internal/jobs"
	hmetrics "hdlts/internal/metrics"
	"hdlts/internal/obs"
	"hdlts/internal/registry"
	"hdlts/internal/sched"
	"hdlts/internal/server"
)

// The traced replay runs a workload's generated inputs in-process, calling
// each layer's public function in the order the daemon's handler does,
// with a span around every call. Each input runs twice on twin state: once
// with spans off and once with them on, so the replay measures its own
// overhead. Per-layer numbers come from here; end-to-end numbers never do.

// replayer is one workload's handler path; request replays input i as
// request number req.
type replayer interface {
	request(rec *recorder, req, i int) error
	close()
}

// replayResult is what a replay measured.
type replayResult struct {
	rec                *recorder
	plainTime, spanned time.Duration
}

// overheadPct is how much longer the spanned passes took than the plain
// ones, in percent.
func (r *replayResult) overheadPct() float64 {
	return 100 * float64(r.spanned-r.plainTime) / float64(r.plainTime)
}

// replay runs inputs, in replayOrder, through twin replayers until budget
// is spent.
func replay(w workload, in *inputs, budget time.Duration, dir string) (*replayResult, error) {
	plain, err := newReplayer(w.kind, in, filepath.Join(dir, "plain"))
	if err != nil {
		return nil, err
	}
	defer plain.close()
	spanned, err := newReplayer(w.kind, in, filepath.Join(dir, "spanned"))
	if err != nil {
		return nil, err
	}
	defer spanned.close()
	seq := replayOrder(w.kind, in)
	res := &replayResult{rec: newRecorder(true)}
	off := newRecorder(false)
	start := time.Now()
	for k := 0; k == 0 || time.Since(start) < budget; k++ {
		i := seq[k%len(seq)]
		t := time.Now()
		if err := plain.request(off, k, i); err != nil {
			return nil, err
		}
		res.plainTime += time.Since(t)
		t = time.Now()
		if err := spanned.request(res.rec, k, i); err != nil {
			return nil, err
		}
		res.spanned += time.Since(t)
	}
	return res, nil
}

// replayOrder is the input order: the open loop's submission order for
// jobs, round robin over the distinct inputs otherwise.
func replayOrder(k kind, in *inputs) []int {
	var seq []int
	if k == kindJobs {
		for _, op := range in.ops {
			seq = append(seq, op.prob)
		}
		return seq
	}
	for i := 0; i < in.distinct(); i++ {
		seq = append(seq, i)
	}
	return seq
}

func newReplayer(k kind, in *inputs, dir string) (replayer, error) {
	switch k {
	case kindJobs:
		mgr, err := jobs.Open(jobs.Config{
			Dir:     dir,
			Metrics: obs.NewRegistry(),
			// Only admission is replayed; the solve is the schedule
			// workloads' business.
			Run: func(context.Context, string, json.RawMessage) (json.RawMessage, error) {
				return json.RawMessage(`{}`), nil
			},
		})
		if err != nil {
			return nil, err
		}
		return &jobsReplay{in: in, mgr: mgr, alg: registry.MustGet("hdlts").Name()}, nil
	case kindWorkflow:
		ts := daemonTraceStore()
		eng, err := hexec.Open(hexec.Config{
			Dir:     dir,
			Metrics: obs.NewRegistry(),
			Traces:  ts,
			// Steps are not executed: the replay times admission (decode,
			// compile, plan, WAL), and the load run measures execution.
			Runner: func(context.Context, hexec.Step) error { return nil },
		})
		if err != nil {
			return nil, err
		}
		return &workflowReplay{in: in, ts: ts, eng: eng}, nil
	default:
		return &scheduleReplay{in: in, ts: daemonTraceStore(), alg: registry.MustGet("hdlts")}, nil
	}
}

// daemonTraceStore is the trace ring as hdltsd configures it by default:
// 512 traces, every request sampled, republishing to an idle hub.
func daemonTraceStore() *obs.TraceStore {
	ts := obs.NewTraceStore(0, 0)
	ts.AttachHub(obs.NewHub(obs.NewRegistry(), obs.DefaultStreamBuffer))
	return ts
}

// allocSample reads the heap's cumulative allocation counter without
// stopping the world.
var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// allocatedMB is the process's cumulative heap allocation, read only while
// spans are on so the plain pass stays free of it.
func allocatedMB(rec *recorder) float64 {
	if !rec.on {
		return 0
	}
	metrics.Read(allocSample)
	return float64(allocSample[0].Value.Uint64()) / 1e6
}

// decodeProblem replays the problem codec: sched.ReadProblemJSON with the
// bytes it allocates.
func decodeProblem(rec *recorder, root, req int, raw []byte) (*sched.Problem, error) {
	a0 := allocatedMB(rec)
	sp := rec.begin("sched.decode", root, req)
	pr, err := sched.ReadProblemJSON(bytes.NewReader(raw))
	rec.end(sp)
	rec.count("sched.decode_alloc_mb", req, allocatedMB(rec)-a0)
	return pr, err
}

// countTracer counts the decision events a traced solve emits.
type countTracer struct{ n int }

func (c *countTracer) Enabled() bool    { return true }
func (c *countTracer) Emit(_ obs.Event) { c.n++ }

// scheduleReplay is POST /v1/schedule: envelope decode, problem decode,
// solve under the trace-ring tracer the daemon attaches, validate,
// evaluate, schedule encode, response encode. An untraced solve of the
// same problem runs beside the traced one for comparison.
type scheduleReplay struct {
	in  *inputs
	ts  *obs.TraceStore
	alg sched.Algorithm
}

func (r *scheduleReplay) close() {}

func (r *scheduleReplay) request(rec *recorder, req, i int) error {
	root := rec.begin("request", -1, req)
	defer rec.end(root)
	sp := rec.begin("server.envelope_decode", root, req)
	dec := json.NewDecoder(bytes.NewReader(r.in.bodies[i]))
	dec.DisallowUnknownFields()
	var env server.ScheduleRequest
	err := dec.Decode(&env)
	rec.end(sp)
	if err != nil {
		return err
	}
	pr, err := decodeProblem(rec, root, req, env.Problem)
	if err != nil {
		return err
	}
	sp = rec.begin("core.solve", root, req)
	plain, err := r.alg.Schedule(pr)
	rec.end(sp)
	if err != nil {
		return err
	}

	id := "replay-" + strconv.Itoa(req)
	r.ts.Start(id)
	var events countTracer
	tr := obs.Named(obs.Multi(r.ts.Tracer(id), &events), r.alg.Name())
	sp = rec.begin("core.solve_traced", root, req)
	sc, err := r.alg.Schedule(pr.WithTracer(tr))
	rec.end(sp)
	if err != nil {
		return err
	}
	if t, ok := r.ts.Get(id); ok && events.n > 0 {
		rec.count("obs.trace_events", req, float64(events.n))
		rec.count("obs.trace_kept_ratio", req, float64(len(t.Events))/float64(events.n))
	}
	if want := r.in.want[i]; sc.Makespan() != want || plain.Makespan() != want {
		return fmt.Errorf("replay: problem %d: makespan traced %v, untraced %v, want %v",
			i, sc.Makespan(), plain.Makespan(), want)
	}

	sp = rec.begin("sched.validate", root, req)
	err = sc.Validate()
	rec.end(sp)
	if err != nil {
		return err
	}
	sp = rec.begin("metrics.evaluate", root, req)
	res, err := hmetrics.Evaluate(r.alg.Name(), sc)
	rec.end(sp)
	if err != nil {
		return err
	}
	sp = rec.begin("sched.encode", root, req)
	var buf bytes.Buffer
	err = sc.WriteScheduleJSON(&buf, r.alg.Name())
	rec.end(sp)
	if err != nil {
		return err
	}
	resp := &server.ScheduleResponse{
		Algorithm: res.Algorithm, Tasks: pr.NumTasks(), Procs: pr.NumProcs(),
		Makespan: res.Makespan, SLR: res.SLR, Speedup: res.Speedup,
		Efficiency: res.Efficiency, Duplicates: res.Duplicates,
		Schedule: json.RawMessage(bytes.TrimSpace(buf.Bytes())),
	}
	// The handler writes responses with an indenting json.Encoder, which
	// re-indents the embedded schedule too.
	sp = rec.begin("server.response_encode", root, req)
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	enc.SetIndent("", "  ")
	err = enc.Encode(resp)
	rec.end(sp)
	return err
}

// jobsReplay is POST /v1/jobs admission: envelope decode, problem decode,
// canonical hash, and the durable submit (WAL group commit with fsync).
type jobsReplay struct {
	in  *inputs
	mgr *jobs.Manager
	alg string // canonical registry name, as the handler passes it
}

func (r *jobsReplay) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = r.mgr.Close(ctx) // replay state is thrown away
}

func (r *jobsReplay) request(rec *recorder, req, i int) error {
	root := rec.begin("request", -1, req)
	defer rec.end(root)
	sp := rec.begin("server.envelope_decode", root, req)
	dec := json.NewDecoder(bytes.NewReader(r.in.bodies[i]))
	dec.DisallowUnknownFields()
	var env server.JobSubmitRequest
	err := dec.Decode(&env)
	rec.end(sp)
	if err != nil {
		return err
	}
	pr, err := decodeProblem(rec, root, req, env.Problem)
	if err != nil {
		return err
	}
	sp = rec.begin("server.canonical_hash", root, req)
	hash, err := server.CanonicalHash(r.alg, pr)
	rec.end(sp)
	if err != nil {
		return err
	}
	sp = rec.begin("jobs.submit", root, req)
	_, err = r.mgr.SubmitTraced(r.alg, hash, "replay-"+strconv.Itoa(req), r.in.canon[i])
	rec.end(sp)
	return err
}

// workflowReplay is POST /v1/workflows admission: YAML decode, compile,
// and Engine.Submit (which compiles again, plans with traced HDLTS, and
// writes the WAL). The replay waits for each workflow outside its spans.
type workflowReplay struct {
	in  *inputs
	ts  *obs.TraceStore
	eng *hexec.Engine
}

func (r *workflowReplay) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = r.eng.Close(ctx) // replay state is thrown away
}

func (r *workflowReplay) request(rec *recorder, req, i int) error {
	id := "replay-" + strconv.Itoa(req)
	r.ts.Start(id)
	ctx := obs.WithTraceStore(obs.WithTraceID(context.Background(), id), r.ts)
	root := rec.begin("request", -1, req)
	sp := rec.begin("exec.decode", root, req)
	wf, err := hexec.DecodeWorkflow(r.in.yamls[i])
	rec.end(sp)
	if err != nil {
		rec.end(root)
		return err
	}
	sp = rec.begin("exec.compile", root, req)
	_, err = wf.Compile()
	rec.end(sp)
	if err != nil {
		rec.end(root)
		return err
	}
	sp = rec.begin("exec.submit", root, req)
	wr, err := r.eng.Submit(ctx, wf)
	rec.end(sp)
	rec.end(root)
	if err != nil {
		return err
	}
	wctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	done, err := r.eng.Wait(wctx, wr.ID)
	if err != nil {
		return err
	}
	if done.State != hexec.Done {
		return errors.New("replay: workflow ended " + string(done.State) + ": " + done.Error)
	}
	return nil
}
