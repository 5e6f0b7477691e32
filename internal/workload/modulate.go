package workload

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/sim"
)

// RateModulator scales a source's arrival rate over simulated time,
// turning the stationary Poisson streams of the paper into
// non-homogeneous ones (load steps, ramps, bursts). FactorAt must be
// bounded above by MaxFactor for all t; both must be pure functions so
// runs stay deterministic. The scenario package provides the standard
// implementation.
type RateModulator interface {
	// FactorAt returns the instantaneous rate multiplier at time t
	// (1 = nominal).
	FactorAt(t float64) float64
	// MaxFactor returns a finite upper bound on FactorAt over the run.
	MaxFactor() float64
}

// arrivalOwner is the source behind an arrivals loop; accepted
// candidates call back into it. An interface instead of a captured
// func() lets the loop live by value inside its owner with no per-source
// closure allocations.
type arrivalOwner interface{ arrive() }

// arrivals drives one source's arrival process. With a nil modulator it
// draws plain exponential gaps — byte-identical to the pre-scenario
// generator. With a modulator it generates a non-homogeneous Poisson
// process by Lewis-Shedler thinning: candidate arrivals fire at the peak
// rate rate·MaxFactor and each is accepted with probability
// FactorAt(now)/MaxFactor, which needs no rate integration and keeps the
// run a pure function of the seed.
//
// The candidate loop is the single hottest call site of a run, so it is
// kept allocation-free and branch-lean: the peak-rate mean gap and the
// modulator's bound are hoisted to fields at construction (MaxFactor is
// constant by contract), the loop lives by value inside its owning
// source, and self-scheduling goes through one package-level handler
// (the loop itself rides along as the payload word) instead of a
// per-source closure.
//
// Every draw of the source — gap, thinning accept, and the arrival's
// body draws — interleaves on the one stream r, in exact arrival order;
// the corpus in testdata/golden/ pins the resulting sample path.
type arrivals struct {
	eng       *sim.Engine
	r         *rng.Source
	rate      float64
	peakMean  float64 // mean inter-candidate gap at the peak rate
	maxFactor float64 // cached mod.MaxFactor(); 1 with no modulator
	mod       RateModulator
	owner     arrivalOwner
	cb        sim.Callback
}

// candidateHandler is the engine callback behind every arrivals loop;
// the loop rides along as the payload.
func candidateHandler(p any) { p.(*arrivals).candidate() }

// init binds the loop to its engine and owner, once per source
// lifetime.
func (a *arrivals) init(eng *sim.Engine, owner arrivalOwner) {
	a.eng, a.owner = eng, owner
}

// reconfigure rebinds the arrivals loop for a fresh run in place: a new
// (typically reseeded) RNG stream, rate and modulator, re-registering
// the shared handler on the engine (an engine Reset clears
// registrations). It performs the same validation as construction and
// allocates nothing after the first run.
func (a *arrivals) reconfigure(r *rng.Source, rate float64, mod RateModulator) error {
	maxFactor := 1.0
	if mod != nil {
		maxFactor = mod.MaxFactor()
		if !(maxFactor > 0) || maxFactor != maxFactor {
			return fmt.Errorf("workload: rate modulator MaxFactor = %v, want > 0", maxFactor)
		}
	}
	a.r, a.rate, a.maxFactor, a.mod = r, rate, maxFactor, mod
	a.peakMean = 0
	if rate > 0 {
		a.peakMean = 1 / (rate * maxFactor)
	}
	a.cb = a.eng.Register(candidateHandler)
	return nil
}

// nextGap draws the next inter-candidate gap.
func (a *arrivals) nextGap() float64 { return a.r.Exponential(a.peakMean) }

// start schedules the first candidate. A zero rate generates nothing.
func (a *arrivals) start() {
	if a.rate == 0 {
		return
	}
	a.eng.MustScheduleCall(a.nextGap(), a.cb, a)
}

// candidate fires one candidate arrival, thins it, and self-schedules.
func (a *arrivals) candidate() {
	if a.accept() {
		a.owner.arrive()
	}
	a.eng.MustScheduleCall(a.nextGap(), a.cb, a)
}

// accept applies the thinning test at the current time.
func (a *arrivals) accept() bool {
	if a.mod == nil {
		return true
	}
	f := a.mod.FactorAt(a.eng.Now())
	if f < 0 {
		f = 0
	}
	if f > a.maxFactor {
		panic(fmt.Sprintf("workload: modulator factor %v exceeds declared max %v", f, a.maxFactor))
	}
	return a.r.Float64()*a.maxFactor < f
}
