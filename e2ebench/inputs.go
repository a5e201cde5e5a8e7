package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os/exec"
	"strconv"
	"time"

	hexec "hdlts/internal/exec"
	"hdlts/internal/gen"
	"hdlts/internal/registry"
	"hdlts/internal/sched"
	"hdlts/internal/workflows"
)

// kind is the route a workload drives.
type kind int

const (
	kindSchedule kind = iota // POST /v1/schedule, closed loop
	kindJobs                 // POST /v1/jobs + GET polling, open loop
	kindWorkflow             // POST /v1/workflows + GET polling, closed loop
)

// jobsRate is the open-loop arrival rate of jobs-repeat1k in submissions
// per second: about half of what the daemon sustains on 1k-task jobs on
// a 2-CPU machine, so queueing shows without a growing backlog.
const jobsRate = 10

// workload is one named traffic mix.
type workload struct {
	name    string
	kind    kind
	clients int
	// make builds the inputs from the seed; tiny shrinks them for the
	// harness self-test.
	make func(seed int64, tiny bool, seconds float64, dagen string) (*inputs, error)
}

var workloads = []workload{
	{name: "sched-cybershake2k", kind: kindSchedule, clients: 2, make: cybershakeSchedule},
	{name: "jobs-repeat1k", kind: kindJobs, clients: 2, make: repeatJobs},
	{name: "workflow-drift100", kind: kindWorkflow, clients: 1, make: driftWorkflows},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// inputs are the generated requests of one run. The program sees only the
// request bodies; the rest is what the benchmark needs to check answers.
type inputs struct {
	// Scheduling problems (schedule and jobs workloads).
	probs  []*sched.Problem
	canon  [][]byte  // canonical problem JSON, as dagen emits it
	bodies [][]byte  // request envelopes around canon
	want   []float64 // makespan of the benchmark's own in-process solve
	// warm lists the problem indices sent before measuring starts.
	warm []int
	// ops is the open-loop arrival schedule (jobs workload).
	ops []jobOp
	// Workflow definitions (workflow workload): YAML bodies and their
	// decoded form for checking step order.
	yamls [][]byte
	wfs   []*hexec.Workflow
}

// distinct is the number of distinct requests the closed loop cycles
// through.
func (in *inputs) distinct() int {
	if len(in.wfs) > 0 {
		return len(in.wfs)
	}
	return len(in.probs)
}

// jobOp is one scheduled submission: due is its offset from the start of
// measuring; prob indexes inputs.probs.
type jobOp struct {
	due  time.Duration
	prob int
}

func cybershakeSchedule(seed int64, tiny bool, _ float64, _ string) (*inputs, error) {
	vars, n := 1000, 4
	if tiny {
		vars, n = 10, 2
	}
	g, err := workflows.CyberShakeGraph(vars)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{}
	for i := 0; i < n; i++ {
		pr, err := gen.AssignCosts(g, gen.CostParams{Procs: 10, WDAG: 80, Beta: 1.2, CCR: 1}, rng)
		if err != nil {
			return nil, err
		}
		if err := in.add(pr); err != nil {
			return nil, err
		}
		in.warm = append(in.warm, i)
	}
	return in, nil
}

// repeatJobs lays out the open loop in groups of four arrivals every
// 4/jobsRate seconds: a new problem, the same problem again 10 ms later
// (still in flight, so it coalesces), a second new problem, and a repeat
// of an earlier finished problem (a cache hit). Half the submissions
// repeat a problem.
func repeatJobs(seed int64, tiny bool, seconds float64, _ string) (*inputs, error) {
	v := 1000
	if tiny {
		v = 100
	}
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{}
	newProblem := func() (int, error) {
		// The Table II point of the repository's own solver benches
		// (internal/perf).
		pr, err := gen.Random(gen.Params{V: v, Alpha: 1.5, Density: 3, CCR: 2, Procs: 8, WDAG: 80, Beta: 1.2}, rng)
		if err != nil {
			return 0, err
		}
		return len(in.probs), in.add(pr)
	}
	for i := 0; i < 2; i++ {
		p, err := newProblem()
		if err != nil {
			return nil, err
		}
		in.warm = append(in.warm, p)
	}
	period := 4 * time.Second / jobsRate
	groups := int(seconds*jobsRate/4 + 0.5)
	if groups < 1 {
		groups = 1
	}
	for g := 0; g < groups; g++ {
		at := time.Duration(g) * period
		a, err := newProblem()
		if err != nil {
			return nil, err
		}
		b, err := newProblem()
		if err != nil {
			return nil, err
		}
		old := rng.Intn(a) // any problem submitted at least one period ago
		in.ops = append(in.ops,
			jobOp{due: at, prob: a},
			jobOp{due: at + 10*time.Millisecond, prob: a},
			jobOp{due: at + period/2, prob: b},
			jobOp{due: at + period/2 + 10*time.Millisecond, prob: old})
	}
	return in, nil
}

// add registers one problem: its canonical form, request envelope, and the
// makespan an in-process solve gives.
func (in *inputs) add(pr *sched.Problem) error {
	var buf bytes.Buffer
	if err := pr.WriteJSON(&buf); err != nil {
		return err
	}
	canon := bytes.TrimSpace(buf.Bytes())
	body := make([]byte, 0, len(canon)+32)
	body = append(body, `{"algorithm":"hdlts","problem":`...)
	body = append(body, canon...)
	body = append(body, '}')
	s, err := registry.MustGet("hdlts").Schedule(pr)
	if err != nil {
		return fmt.Errorf("reference solve: %w", err)
	}
	in.probs = append(in.probs, pr)
	in.canon = append(in.canon, canon)
	in.bodies = append(in.bodies, body)
	in.want = append(in.want, s.Makespan())
	return nil
}

// driftWorkflows asks the dagen binary for runnable random workflows whose
// steps sleep a few ms each (timescale 1e-4 s per cost unit).
func driftWorkflows(seed int64, tiny bool, _ float64, dagen string) (*inputs, error) {
	v, n := 100, 8
	if tiny {
		v = 20
	}
	in := &inputs{}
	for i := 0; i < n; i++ {
		cmd := exec.Command(dagen, "-kind", "random", "-v", strconv.Itoa(v),
			"-format", "workflow", "-procs", "4", "-timescale", "0.0001",
			"-seed", strconv.FormatInt(seed*16+int64(i), 10))
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("dagen: %v: %s", err, stderr.Bytes())
		}
		wf, err := hexec.DecodeWorkflow(out)
		if err != nil {
			return nil, fmt.Errorf("dagen workflow: %w", err)
		}
		in.yamls = append(in.yamls, out)
		in.wfs = append(in.wfs, wf)
	}
	// One warm-up run: a workflow takes seconds, and the daemon's paths
	// are the same for every one.
	in.warm = []int{0}
	return in, nil
}
