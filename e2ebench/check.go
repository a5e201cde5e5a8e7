package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	hexec "hdlts/internal/exec"
	"hdlts/internal/sched"
	"hdlts/internal/server"
)

// checker verifies every answer the daemon gives. Any wrong answer is a
// harness-level failure: the run stops and reports correct=false.
type checker struct {
	in *inputs

	mu sync.Mutex
	// passed remembers (problem, schedule bytes) pairs already re-read and
	// validated: identical bytes give an identical verdict, so a repeated
	// answer is checked by its digest alone.
	passed map[[sha256.Size]byte]bool
	// results collects every finished job result per problem, split by
	// whether the daemon answered it from its cache, for the byte-identity
	// check at the end of the run.
	fresh map[int][][]byte
	hits  map[int][][]byte
}

func newChecker(in *inputs) *checker {
	return &checker{
		in:     in,
		passed: make(map[[sha256.Size]byte]bool),
		fresh:  make(map[int][][]byte),
		hits:   make(map[int][][]byte),
	}
}

// scheduleResponse is the subset of server.ScheduleResponse the checks read.
type scheduleResponse struct {
	Makespan       float64         `json:"makespan"`
	Schedule       json.RawMessage `json:"schedule"`
	ElapsedSeconds float64         `json:"elapsed_seconds"`
}

// checkSchedule re-reads a schedule response against its own problem,
// validates it, and requires the makespan of the benchmark's in-process
// solve.
func (c *checker) checkSchedule(prob int, body []byte) (*scheduleResponse, error) {
	var resp scheduleResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decode schedule response: %w", err)
	}
	want := c.in.want[prob]
	if resp.Makespan != want {
		return nil, fmt.Errorf("problem %d: makespan %v, in-process solve gives %v", prob, resp.Makespan, want)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%d\x00", prob)
	h.Write(resp.Schedule)
	var key [sha256.Size]byte
	h.Sum(key[:0])
	c.mu.Lock()
	ok := c.passed[key]
	c.mu.Unlock()
	if ok {
		return &resp, nil
	}
	pr := c.in.probs[prob]
	s, _, err := sched.ReadScheduleJSON(pr, bytes.NewReader(resp.Schedule))
	if err != nil {
		// Schedules of multi-entry graphs reference the normalised problem.
		var err2 error
		s, _, err2 = sched.ReadScheduleJSON(pr.Normalize(), bytes.NewReader(resp.Schedule))
		if err2 != nil {
			return nil, fmt.Errorf("problem %d: re-read schedule: %v (normalised: %v)", prob, err, err2)
		}
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("problem %d: invalid schedule: %w", prob, err)
	}
	if s.Makespan() != want {
		return nil, fmt.Errorf("problem %d: re-read makespan %v, want %v", prob, s.Makespan(), want)
	}
	c.mu.Lock()
	c.passed[key] = true
	c.mu.Unlock()
	return &resp, nil
}

// checkJob checks one finished job and files its result for the cache
// byte-identity check.
func (c *checker) checkJob(prob int, v *server.JobView) error {
	if v.State != "done" {
		return fmt.Errorf("job %s ended %s: %s", v.ID, v.State, v.Error)
	}
	if _, err := c.checkSchedule(prob, v.Result); err != nil {
		return fmt.Errorf("job %s: %w", v.ID, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if v.CacheHit {
		c.hits[prob] = append(c.hits[prob], v.Result)
	} else {
		c.fresh[prob] = append(c.fresh[prob], v.Result)
	}
	return nil
}

// checkCacheHits requires every cache-hit result to be byte-identical to a
// result the daemon computed for the same problem.
func (c *checker) checkCacheHits() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for prob, hits := range c.hits {
	hit:
		for _, h := range hits {
			for _, f := range c.fresh[prob] {
				if bytes.Equal(h, f) {
					continue hit
				}
			}
			return fmt.Errorf("problem %d: cache-hit result matches none of %d computed results", prob, len(c.fresh[prob]))
		}
	}
	return nil
}

// checkWorkflow requires a finished workflow to be done, with every step
// run exactly once and none started before all its dependencies finished.
func checkWorkflow(wf *hexec.Workflow, v *server.WorkflowView) error {
	if v.State != hexec.Done {
		return fmt.Errorf("workflow %s ended %s: %s", v.ID, v.State, v.Error)
	}
	if len(v.Steps) != len(wf.Steps) {
		return fmt.Errorf("workflow %s: %d step records for %d steps", v.ID, len(v.Steps), len(wf.Steps))
	}
	finish := make(map[string]time.Time, len(v.Steps))
	for _, st := range v.Steps {
		finish[st.Name] = st.FinishedAt
	}
	for i, st := range v.Steps {
		if st.Name != wf.Steps[i].Name {
			return fmt.Errorf("workflow %s: step %d is %q, want %q", v.ID, i, st.Name, wf.Steps[i].Name)
		}
		if st.State != hexec.StepDone || st.Attempts != 1 {
			return fmt.Errorf("workflow %s: step %s %s after %d attempts", v.ID, st.Name, st.State, st.Attempts)
		}
		for _, d := range wf.Steps[i].Depends {
			if st.StartedAt.Before(finish[d]) {
				return fmt.Errorf("workflow %s: step %s started %v before dependency %s finished",
					v.ID, st.Name, finish[d].Sub(st.StartedAt), d)
			}
		}
	}
	return nil
}
