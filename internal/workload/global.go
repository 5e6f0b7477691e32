package workload

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/task"
)

// GlobalParams describes the single global-task stream.
type GlobalParams struct {
	// Rate is the Poisson arrival rate λ_global of whole global tasks.
	Rate float64
	// Shape builds each instance's structure.
	Shape Shape
	// SlackMin, SlackMax bound the uniform slack draw (shared with
	// locals per Table 1; the PSP baseline widens it to [1.25, 5.0]).
	SlackMin, SlackMax float64
	// RelFlex is the relative flexibility of global tasks with respect
	// to local tasks (Table 1: 1.0). The end-to-end slack is
	// RelFlex · Shape.SlackScale(meanLocalExec) · U[SlackMin, SlackMax].
	RelFlex float64
	// MeanLocalExec is 1/µ_local, the normalizer for SlackScale.
	MeanLocalExec float64
	// Mod optionally modulates the arrival rate over time (scenario
	// bursts and ramps); nil keeps the stream stationary.
	Mod RateModulator
	// GraphPool optionally recycles instance-graph nodes across
	// arrivals. Nil allocates; sampled graphs are identical either way.
	GraphPool *task.GraphPool
}

// Spec is one sampled global task handed to the start callback: the
// instance graph plus its end-to-end attributes. The system package
// wraps it into a procmgr.Instance.
type Spec struct {
	Graph    *task.Graph
	Arrival  float64
	Deadline float64
	Slack    float64
}

// GlobalSource generates the global-task stream. The zero value is
// usable after Init + Reconfigure.
type GlobalSource struct {
	eng    *sim.Engine
	r      *rng.Source
	params GlobalParams
	arr    arrivals
	k      int
	start  func(Spec)
	pooled PooledBuilder // non-nil when the shape supports graph reuse
}

// NewGlobalSource returns a generator; call Start to schedule the first
// arrival. k is the node count (needed for placement).
func NewGlobalSource(eng *sim.Engine, r *rng.Source, k int, params GlobalParams,
	start func(Spec)) (*GlobalSource, error) {
	if eng == nil {
		return nil, fmt.Errorf("workload: global source: nil engine")
	}
	s := &GlobalSource{}
	s.Init(eng)
	if err := s.Reconfigure(r, k, params, start); err != nil {
		return nil, err
	}
	return s, nil
}

// Init binds the source to its engine, once per source lifetime. It must
// be followed by Reconfigure before Start, and re-issued if the source
// value is moved.
func (s *GlobalSource) Init(eng *sim.Engine) {
	s.eng = eng
	s.arr.init(eng, s)
}

// validateGlobal checks the per-run inputs shared by construction and
// reconfiguration.
func validateGlobal(r *rng.Source, k int, params GlobalParams, start func(Spec)) error {
	if r == nil || start == nil {
		return fmt.Errorf("workload: global source: nil dependency")
	}
	if params.Rate < 0 || params.Shape == nil || params.SlackMax < params.SlackMin ||
		params.RelFlex < 0 || params.MeanLocalExec <= 0 || k <= 0 {
		return fmt.Errorf("workload: global source: bad params")
	}
	// Fail fast on impossible shapes (e.g. parallel m > k) rather than
	// mid-run.
	if _, err := params.Shape.Build(rng.New(0), k); err != nil {
		return fmt.Errorf("workload: global source: %w", err)
	}
	return nil
}

// Reconfigure rebinds the source for a fresh replication in place — a
// reseeded RNG stream, new parameters and start callback — reusing the
// source object, its arrivals loop, and the loop's pre-allocated engine
// handler. It must be called after the engine driving the source was
// Reset and before Start; a reconfigured source samples exactly the
// stream a freshly constructed one would.
func (s *GlobalSource) Reconfigure(r *rng.Source, k int, params GlobalParams, start func(Spec)) error {
	if err := validateGlobal(r, k, params, start); err != nil {
		return err
	}
	s.r, s.params, s.k, s.start = r, params, k, start
	s.pooled, _ = params.Shape.(PooledBuilder)
	return s.arr.reconfigure(r, params.Rate, params.Mod)
}

// Start schedules the first arrival. A zero rate generates nothing.
func (s *GlobalSource) Start() { s.arr.start() }

func (s *GlobalSource) arrive() {
	now := s.eng.Now()
	var (
		g   *task.Graph
		err error
	)
	if s.pooled != nil {
		g, err = s.pooled.BuildPooled(s.r, s.k, s.params.GraphPool)
	} else {
		g, err = s.params.Shape.Build(s.r, s.k)
	}
	if err != nil {
		// Construction was validated in NewGlobalSource; a failure here
		// is a programming error in the shape.
		panic(fmt.Sprintf("workload: shape build failed mid-run: %v", err))
	}
	scale := s.params.RelFlex * s.params.Shape.SlackScale(s.params.MeanLocalExec)
	sl := scale * s.r.Uniform(s.params.SlackMin, s.params.SlackMax)
	// dl(T) = ar + ex + sl with ex the critical-path execution time:
	// the serial sum for serial tasks, max_i ex(Ti) for parallel tasks
	// (the paper's PSP formula 2), and the serial-parallel critical
	// path for mixed shapes.
	dl := now + g.CriticalPathExec() + sl
	s.start(Spec{Graph: g, Arrival: now, Deadline: dl, Slack: sl})
}
