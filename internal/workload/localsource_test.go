package workload

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/task"
)

// LocalSource is the one-node-at-a-time form of LocalFleet: an
// independent local-task generator per node. Production runs use the
// fleet; the source stays here as the reference TestFleetMatchesSources
// drives the fleet against, and as the unit under the per-stream
// distribution tests.

// LocalParams describes one node's local-task stream.
type LocalParams struct {
	// Node is the index the stream's tasks execute at; arrivals carry it
	// in Task.NodeID so one shared submit callback can route every
	// node's tasks instead of one closure per node.
	Node int
	// Rate is the Poisson arrival rate λ_local at this node.
	Rate float64
	// MeanExec is 1/µ_local.
	MeanExec float64
	// SlackMin, SlackMax bound the uniform slack distribution.
	SlackMin, SlackMax float64
	// Pex is the prediction model.
	Pex PexModel
	// Demand overrides the execution-time distribution; nil draws the
	// paper's exponential demands.
	Demand Demand
	// Mod optionally modulates the arrival rate over time (scenario
	// bursts and ramps); nil keeps the stream stationary.
	Mod RateModulator
	// Pool optionally recycles retired tasks instead of allocating a
	// fresh Task per arrival. Nil allocates; results are identical
	// either way.
	Pool *task.Pool
}

// LocalSource generates local tasks at one node. Arrivals self-schedule
// on the engine, so running the engine to a horizon bounds generation
// naturally. The zero value is usable after Init + Reconfigure.
type LocalSource struct {
	eng    *sim.Engine
	r      *rng.Source
	params LocalParams
	arr    arrivals
	submit func(*task.Task)
	nextID func() uint64
	nextSq func() uint64
}

// NewLocalSource returns a generator; call Start to schedule the first
// arrival.
func NewLocalSource(eng *sim.Engine, r *rng.Source, params LocalParams,
	nextID, nextSeq func() uint64, submit func(*task.Task)) (*LocalSource, error) {
	if eng == nil {
		return nil, fmt.Errorf("workload: local source: nil engine")
	}
	s := &LocalSource{}
	s.Init(eng)
	if err := s.Reconfigure(r, params, nextID, nextSeq, submit); err != nil {
		return nil, err
	}
	return s, nil
}

// Init binds the source to its engine, once per source lifetime. It must
// be followed by Reconfigure before Start. Init must be re-issued if the
// source value is moved (it wires the internal arrivals loop back to the
// source's address).
func (s *LocalSource) Init(eng *sim.Engine) {
	s.eng = eng
	s.arr.init(eng, s)
}

// validateLocal checks the per-run inputs shared by construction and
// reconfiguration.
func validateLocal(r *rng.Source, params LocalParams,
	nextID, nextSeq func() uint64, submit func(*task.Task)) error {
	if r == nil || submit == nil || nextID == nil || nextSeq == nil {
		return fmt.Errorf("workload: local source: nil dependency")
	}
	if params.Node < 0 || params.Rate < 0 || params.MeanExec <= 0 ||
		params.SlackMax < params.SlackMin {
		return fmt.Errorf("workload: local source: bad params %+v", params)
	}
	return ValidateDemand(params.Demand)
}

// Reconfigure rebinds the source for a fresh replication in place — a
// reseeded RNG stream, new parameters and callbacks — reusing the source
// object, its arrivals loop, and the loop's pre-allocated engine handler.
// It must be called after the engine driving the source was Reset (the
// reset clears callback registrations) and before Start. A reconfigured
// source generates exactly the stream a freshly constructed one would:
// reuse is a pure allocation optimization for warm workspaces.
func (s *LocalSource) Reconfigure(r *rng.Source, params LocalParams,
	nextID, nextSeq func() uint64, submit func(*task.Task)) error {
	if err := validateLocal(r, params, nextID, nextSeq, submit); err != nil {
		return err
	}
	s.r, s.params = r, params
	s.submit, s.nextID, s.nextSq = submit, nextID, nextSeq
	return s.arr.reconfigure(r, params.Rate, params.Mod)
}

// Start schedules the first arrival. A zero rate generates nothing.
func (s *LocalSource) Start() { s.arr.start() }

func (s *LocalSource) arrive() {
	now := s.eng.Now()
	ex := sampleDemand(s.params.Demand, s.r, s.params.MeanExec)
	sl := s.r.Uniform(s.params.SlackMin, s.params.SlackMax)
	// The pool hands back a zeroed task; every non-zero field of a local
	// task is assigned here, in the same draw order as the unpooled path.
	t := s.params.Pool.Get()
	t.ID = s.nextID()
	t.Class = task.Local
	t.Stage = -1
	t.NodeID = s.params.Node
	t.Arrival = now
	t.Deadline = now + ex + sl // dl = ar + ex + sl
	t.FirmDeadline = now + ex + sl
	t.Exec = ex
	t.Pex = s.params.Pex.Sample(s.r, ex)
	t.Seq = s.nextSq()
	s.submit(t)
}
