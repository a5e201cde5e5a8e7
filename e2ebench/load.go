package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"hdlts/internal/server"
)

// opTimeout bounds one op; an op that takes longer counts as failed.
const opTimeout = 60 * time.Second

// Poll intervals for ops that finish after their POST returns.
const (
	jobPoll      = 5 * time.Millisecond
	workflowPoll = 50 * time.Millisecond
)

// sample is one finished op.
type sample struct {
	input   int // index of the input the op sent
	latency time.Duration
	end     time.Time
	failed  bool
	// outside is client latency minus the daemon's elapsed_seconds
	// (schedule ops only).
	outside time.Duration
	// Jobs: the submission's answer and the finished job.
	cacheHit, coalesced bool
	job                 *server.JobView
	// Workflows: the finished record.
	wf *server.WorkflowView
}

// loader drives one daemon over at most maxConns connections and checks
// every answer. A wrong answer cancels the run.
type loader struct {
	base   string
	client *http.Client
	in     *inputs
	check  *checker

	ctx    context.Context
	cancel context.CancelFunc
	mu     sync.Mutex
	wrong  error
	// seenJobs maps job IDs already returned to a submission, so a reused
	// ID marks a coalesced submission.
	seenJobs map[string]bool
}

func newLoader(base string, in *inputs, maxConns int) *loader {
	ctx, cancel := context.WithCancel(context.Background())
	return &loader{
		base: base,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
		}},
		in:       in,
		check:    newChecker(in),
		ctx:      ctx,
		cancel:   cancel,
		seenJobs: make(map[string]bool),
	}
}

// fail records the first wrong answer and stops every op.
func (l *loader) fail(err error) {
	l.mu.Lock()
	if l.wrong == nil {
		l.wrong = err
	}
	l.mu.Unlock()
	l.cancel()
}

func (l *loader) wrongAnswer() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.wrong
}

func (l *loader) close() {
	l.cancel()
	l.client.CloseIdleConnections()
}

// do sends one request and reads the whole answer. A transport error or a
// timeout is returned as status 0.
func (l *loader) do(ctx context.Context, method, path, ctype string, body []byte) (int, []byte) {
	req, err := http.NewRequestWithContext(ctx, method, l.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil
	}
	return resp.StatusCode, b
}

// scheduleOp posts one problem to /v1/schedule and checks the schedule.
func (l *loader) scheduleOp(prob int) sample {
	ctx, cancel := context.WithTimeout(l.ctx, opTimeout)
	defer cancel()
	start := time.Now()
	status, body := l.do(ctx, http.MethodPost, "/v1/schedule", "application/json", l.in.bodies[prob])
	end := time.Now()
	s := sample{input: prob, latency: end.Sub(start), end: end}
	if status != http.StatusOK {
		s.failed = true
		return s
	}
	resp, err := l.check.checkSchedule(prob, body)
	if err != nil {
		l.fail(err)
		s.failed = true
		return s
	}
	s.outside = s.latency - time.Duration(resp.ElapsedSeconds*float64(time.Second))
	return s
}

// jobOp submits one problem to /v1/jobs and polls it until it finishes;
// latency runs from due, the time the open loop meant to send it.
func (l *loader) jobOp(prob int, due time.Time) sample {
	ctx, cancel := context.WithTimeout(l.ctx, opTimeout)
	defer cancel()
	status, body := l.do(ctx, http.MethodPost, "/v1/jobs", "application/json", l.in.bodies[prob])
	s := sample{input: prob, failed: true}
	if status != http.StatusOK && status != http.StatusAccepted {
		s.end = time.Now()
		s.latency = s.end.Sub(due)
		return s
	}
	var v server.JobView
	if err := json.Unmarshal(body, &v); err != nil {
		l.fail(fmt.Errorf("decode job submission: %w", err))
		return s
	}
	s.cacheHit = v.CacheHit
	l.mu.Lock()
	s.coalesced = l.seenJobs[v.ID]
	l.seenJobs[v.ID] = true
	l.mu.Unlock()
	for v.State == "queued" || v.State == "running" {
		select {
		case <-ctx.Done():
			s.end = time.Now()
			s.latency = s.end.Sub(due)
			return s
		case <-time.After(jobPoll):
		}
		status, body = l.do(ctx, http.MethodGet, "/v1/jobs/"+v.ID, "", nil)
		if status != http.StatusOK {
			s.end = time.Now()
			s.latency = s.end.Sub(due)
			return s
		}
		v = server.JobView{}
		if err := json.Unmarshal(body, &v); err != nil {
			l.fail(fmt.Errorf("decode job: %w", err))
			return s
		}
	}
	s.end = time.Now()
	s.latency = s.end.Sub(due)
	if err := l.check.checkJob(prob, &v); err != nil {
		l.fail(err)
		return s
	}
	s.failed = false
	s.job = &v
	return s
}

// workflowOp submits one workflow and polls it until it finishes.
func (l *loader) workflowOp(i int) sample {
	ctx, cancel := context.WithTimeout(l.ctx, opTimeout)
	defer cancel()
	start := time.Now()
	status, body := l.do(ctx, http.MethodPost, "/v1/workflows", "application/yaml", l.in.yamls[i])
	s := sample{input: i, failed: true}
	var v server.WorkflowView
	if status == http.StatusAccepted {
		if err := json.Unmarshal(body, &v); err != nil {
			l.fail(fmt.Errorf("decode workflow submission: %w", err))
			return s
		}
	}
	for status == http.StatusOK || status == http.StatusAccepted {
		if v.State.Terminal() {
			break
		}
		select {
		case <-ctx.Done():
			status = 0
			continue
		case <-time.After(workflowPoll):
		}
		status, body = l.do(ctx, http.MethodGet, "/v1/workflows/"+v.ID, "", nil)
		if status == http.StatusOK {
			v = server.WorkflowView{}
			if err := json.Unmarshal(body, &v); err != nil {
				l.fail(fmt.Errorf("decode workflow: %w", err))
				return s
			}
		}
	}
	s.end = time.Now()
	s.latency = s.end.Sub(start)
	if status != http.StatusOK && status != http.StatusAccepted {
		return s
	}
	if err := checkWorkflow(l.in.wfs[i], &v); err != nil {
		l.fail(err)
		return s
	}
	s.failed = false
	s.wf = &v
	return s
}

// op runs input i through the workload's route, as a closed-loop client.
func (l *loader) op(k kind, i int) sample {
	switch k {
	case kindSchedule:
		return l.scheduleOp(i)
	case kindWorkflow:
		return l.workflowOp(i)
	default:
		return l.jobOp(i, time.Now())
	}
}

// clientRun is what one closed-loop client did: its samples and how long
// it took from the window start to its last answer.
type clientRun struct {
	samples []sample
	busy    time.Duration
}

// closedLoop runs clients that each send their next request only once the
// previous one is answered, cycling through n inputs, until the window
// closes; each client finishes its op in flight.
func (l *loader) closedLoop(k kind, clients, n int, window time.Duration) []clientRun {
	runs := make([]clientRun, clients)
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for seq := 0; time.Since(t0) < window && l.ctx.Err() == nil; seq++ {
				s := l.op(k, (c+seq*clients)%n)
				runs[c].samples = append(runs[c].samples, s)
				if !s.end.IsZero() { // zero only on a wrong answer, which ends the run
					runs[c].busy = s.end.Sub(t0)
				}
			}
		}(c)
	}
	wg.Wait()
	return runs
}

// openLoop sends each op at its due time whatever the daemon's state, and
// returns the samples plus how late the generator launched each op.
func (l *loader) openLoop(ops []jobOp) (samples []sample, lag []time.Duration) {
	samples = make([]sample, len(ops))
	lag = make([]time.Duration, len(ops))
	t0 := time.Now()
	sent := 0
	var wg sync.WaitGroup
	for i, op := range ops {
		due := t0.Add(op.due)
		if d := time.Until(due); d > 0 {
			select {
			case <-l.ctx.Done():
			case <-time.After(d):
			}
		}
		if l.ctx.Err() != nil {
			break
		}
		lag[i] = time.Since(due)
		sent++
		wg.Add(1)
		go func(i int, op jobOp) {
			defer wg.Done()
			samples[i] = l.jobOp(op.prob, due)
		}(i, op)
	}
	wg.Wait()
	return samples[:sent], lag[:sent]
}
