package workload

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/task"
)

// LocalFleet generates the local-task streams of every node in one
// structure: per node, a Poisson stream of local tasks with exponential
// (or Demand-drawn) execution times and uniform slack. The state is laid
// out for
// large topologies: everything the nodes share (the Table 1 parameters,
// the demand and prediction models, the modulator, the callbacks) is
// stored once on the fleet, and the per-node residue shrinks to one
// 64-byte localStream record in a contiguous slice. At 64k nodes the
// per-source working set drops from ~20 MB of scattered source objects
// to 4 MB of records touched one cache line per arrival, with the
// shared half staying resident in L1.
//
// A LocalFleet is single-threaded, like the engine it feeds.
// TestFleetMatchesSources pins it to a reference one-source-per-node
// generator kept in the package's tests.
type LocalFleet struct {
	eng     *sim.Engine
	cb      sim.Callback
	streams []localStream

	// Shared per-run parameters (see FleetParams).
	meanExec  float64
	slackMin  float64
	slackMax  float64
	maxFactor float64
	pex       PexModel
	demand    Demand
	mod       RateModulator
	pool      *task.Pool
	submit    func(*task.Task)
	nextID    func() uint64
	nextSq    func() uint64
}

// localStream is one node's arrival-process state: its RNG stream and
// the node's peak-rate mean gap. The back-pointer lets the shared engine
// handler reach the fleet without a per-node closure. Kept to one cache
// line — this record is all the per-node state an arrival touches.
type localStream struct {
	fleet    *LocalFleet
	r        rng.Source
	peakMean float64 // mean inter-candidate gap at the peak rate; 0 = silent
	node     int32
}

// fleetHandler is the engine callback shared by every stream of every
// fleet; the stream rides along as the payload.
func fleetHandler(p any) { p.(*localStream).candidate() }

// NewLocalFleet returns an empty fleet bound to eng; Configure sizes it.
func NewLocalFleet(eng *sim.Engine) *LocalFleet {
	f := &LocalFleet{}
	f.Init(eng)
	return f
}

// Init binds the fleet to its engine, once per fleet lifetime (or after
// the engine object itself is replaced).
func (f *LocalFleet) Init(eng *sim.Engine) { f.eng = eng }

// FleetParams carries the parameters shared by every node's stream.
// Per-node rate and seeding are set by SeedNode.
type FleetParams struct {
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
	// bursts and ramps); nil keeps the streams stationary.
	Mod RateModulator
	// Pool recycles retired tasks instead of allocating a fresh Task
	// per arrival (required).
	Pool *task.Pool
}

// Configure rebinds the fleet for a fresh run of n nodes, reusing the
// stream tables when the node count matches. It must be called after the
// engine was Reset and be followed by SeedNode for every node, then
// Start.
func (f *LocalFleet) Configure(n int, params FleetParams,
	nextID, nextSeq func() uint64, submit func(*task.Task)) error {
	if f.eng == nil {
		return fmt.Errorf("workload: fleet: nil engine")
	}
	if n <= 0 {
		return fmt.Errorf("workload: fleet: %d nodes, want > 0", n)
	}
	if submit == nil || nextID == nil || nextSeq == nil || params.Pool == nil {
		return fmt.Errorf("workload: fleet: nil dependency")
	}
	if params.MeanExec <= 0 || params.SlackMax < params.SlackMin {
		return fmt.Errorf("workload: fleet: bad params %+v", params)
	}
	if err := ValidateDemand(params.Demand); err != nil {
		return err
	}
	f.maxFactor = 1
	if params.Mod != nil {
		mf := params.Mod.MaxFactor()
		if !(mf > 0) || mf != mf {
			return fmt.Errorf("workload: rate modulator MaxFactor = %v, want > 0", mf)
		}
		f.maxFactor = mf
	}
	f.meanExec = params.MeanExec
	f.slackMin, f.slackMax = params.SlackMin, params.SlackMax
	f.pex, f.demand, f.mod, f.pool = params.Pex, params.Demand, params.Mod, params.Pool
	f.nextID, f.nextSq, f.submit = nextID, nextSeq, submit
	if len(f.streams) != n {
		f.streams = make([]localStream, n)
		for i := range f.streams {
			f.streams[i].fleet = f
			f.streams[i].node = int32(i)
		}
	}
	f.cb = f.eng.Register(fleetHandler)
	return nil
}

// SeedNode sets node i's arrival rate and reseeds its stream for the
// run. A zero rate silences the node.
func (f *LocalFleet) SeedNode(i int, rate float64, seed, hash uint64) error {
	if rate < 0 {
		return fmt.Errorf("workload: fleet: node %d rate %v, want >= 0", i, rate)
	}
	s := &f.streams[i]
	s.r.ReseedStream(seed, hash)
	s.peakMean = 0
	if rate > 0 {
		s.peakMean = 1 / (rate * f.maxFactor)
	}
	return nil
}

// Start schedules every node's first candidate arrival.
func (f *LocalFleet) Start() {
	for i := range f.streams {
		s := &f.streams[i]
		if s.peakMean > 0 {
			f.eng.MustScheduleCall(s.nextGap(), f.cb, s)
		}
	}
}

// candidate fires one candidate arrival at this stream's node, thins it,
// and self-schedules — the fleet form of arrivals.candidate, with the
// identical draw order (thinning, body, next gap on one stream).
func (s *localStream) candidate() {
	f := s.fleet
	if f.accept(&s.r) {
		f.arrive(s)
	}
	f.eng.MustScheduleCall(s.nextGap(), f.cb, s)
}

// accept applies the thinning test at the current time.
func (f *LocalFleet) accept(r *rng.Source) bool {
	if f.mod == nil {
		return true
	}
	v := f.mod.FactorAt(f.eng.Now())
	if v < 0 {
		v = 0
	}
	if v > f.maxFactor {
		panic(fmt.Sprintf("workload: modulator factor %v exceeds declared max %v", v, f.maxFactor))
	}
	return r.Float64()*f.maxFactor < v
}

// arrive emits one accepted local task. Draw order: demand, slack, then
// the prediction — the pool hands back a zeroed task and every non-zero
// field is assigned here.
func (f *LocalFleet) arrive(s *localStream) {
	now := f.eng.Now()
	ex := sampleDemand(f.demand, &s.r, f.meanExec)
	sl := s.r.Uniform(f.slackMin, f.slackMax)
	t := f.pool.Get()
	t.ID = f.nextID()
	t.Class = task.Local
	t.Stage = -1
	t.NodeID = int(s.node)
	t.Arrival = now
	t.Deadline = now + ex + sl // dl = ar + ex + sl
	t.FirmDeadline = now + ex + sl
	t.Exec = ex
	t.Pex = f.pex.Sample(&s.r, ex)
	t.Seq = f.nextSq()
	f.submit(t)
}

// nextGap draws the stream's next inter-candidate gap.
func (s *localStream) nextGap() float64 { return s.r.Exponential(s.peakMean) }
