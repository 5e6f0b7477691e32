package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"

	"repro"
	"repro/internal/system"
)

// paper-grid: the researcher's path. Session.Experiment regenerates the
// paper's fig2b, fig4 and combined sweeps in turn at Table 1's 6 nodes
// with stationary arrivals; each regeneration is one job.
const (
	gridHorizon = 10000
	gridReps    = 2
	gridWindow  = 12 // jobs in the digest window: four of each figure
)

var gridExperiments = []string{"fig2b", "fig4", "combined"}

// gridClaim is one of the paper's orderings at load 0.5, checked on every
// regenerated figure: curve lower must sit below curve higher.
type gridClaim struct{ lower, higher string }

var gridClaims = map[string]gridClaim{
	"fig2b":    {lower: "EQF", higher: "UD"},
	"fig4":     {lower: "DIV-1 global", higher: "UD global"},
	"combined": {lower: "EQF-DIV-1 global", higher: "UD-UD global"},
}

// The fig2b UD curve at load 0.5 must land in the paper's band (about
// 40%): loosely on every figure, tightly on the run's mean.
const (
	udBandLo, udBandHi         = 30.0, 50.0 // one figure at this horizon
	udMeanBandLo, udMeanBandHi = 37.5, 41.5 // mean over the run's fig2b jobs
)

func runPaperGrid(ctx context.Context, o opts) (*result, error) {
	r := &result{rec: o.rec}
	warm := baselineJob(1, nproc)
	b, err := setupBatch(ctx, o, r, warm)
	if err != nil {
		return nil, err
	}
	defer b.close()

	digest := sha256.New()
	var udSum, eqfSum float64
	var udN int
	job := func(ctx context.Context, i int, first func()) error {
		id := gridExperiments[i%len(gridExperiments)]
		res, err := b.sess.Experiment(ctx, id, repro.ExperimentOptions{
			Horizon:     gridHorizon,
			Reps:        gridReps,
			Seed:        jobSeed(o.seed, i),
			Parallelism: nproc,
			Progress:    func(int, int) { first() },
		})
		if err != nil {
			return err
		}
		fig := res.Figure
		if i < gridWindow {
			hashFigure(digest, fig)
		}
		lo, hi, err := figureAt(fig, gridClaims[id], 0.5)
		if err != nil {
			return err
		}
		r.check(lo < hi, "%s seed %d: %s (%.2f%%) not below %s (%.2f%%) at load 0.5",
			id, jobSeed(o.seed, i), gridClaims[id].lower, lo, gridClaims[id].higher, hi)
		if id == "fig2b" {
			r.check(hi >= udBandLo && hi <= udBandHi, "fig2b seed %d: UD at load 0.5 = %.2f%%, outside [%g, %g]",
				jobSeed(o.seed, i), hi, udBandLo, udBandHi)
			udSum, eqfSum, udN = udSum+hi, eqfSum+lo, udN+1
		}
		return nil
	}
	s0, s1 := runBatchLoop(ctx, o, r, b, gridWindow, job, func() {
		windowCounts(r, b)
		r.digest = hex.EncodeToString(digest.Sum(nil))[:32]
	})
	r.attempted++
	r.check(udN > 0 && udSum/float64(udN) >= udMeanBandLo && udSum/float64(udN) <= udMeanBandHi,
		"fig2b UD at load 0.5 averages %.2f%% over %d jobs, outside the paper band [%g, %g]",
		udSum/float64(max(udN, 1)), udN, udMeanBandLo, udMeanBandHi)
	fmt.Printf("  paper band: fig2b at load 0.5 over %d jobs: UD %.2f%%, EQF %.2f%% (paper: about 40%% and 30%%)\n",
		udN, udSum/float64(max(udN, 1)), eqfSum/float64(max(udN, 1)))
	batchLayers(r, s0, s1)
	return r, nil
}

// baselineJob is the set-up job: Table 1's configuration at a short
// horizon, one replication per worker so every worker gets a workspace.
func baselineJob(seed uint64, reps int) repro.Job {
	cfg := system.Baseline()
	cfg.Horizon = 2000
	cfg.Seed = seed
	return repro.Job{Config: cfg, Reps: reps}
}

// figureAt returns the values of a claim's two curves at load x, and
// checks that every point of the figure is a percentage.
func figureAt(fig *repro.Figure, c gridClaim, x float64) (lower, higher float64, err error) {
	if fig == nil || len(fig.Curves) == 0 {
		return 0, 0, fmt.Errorf("empty figure")
	}
	found := 0
	for _, cv := range fig.Curves {
		for _, p := range cv.Points {
			if math.IsNaN(p.Y) || p.Y < 0 || p.Y > 100 {
				return 0, 0, fmt.Errorf("%s: %s at x=%g is %v, not a percentage", fig.ID, cv.Label, p.X, p.Y)
			}
			if p.X != x {
				continue
			}
			switch cv.Label {
			case c.lower:
				lower, found = p.Y, found+1
			case c.higher:
				higher, found = p.Y, found+1
			}
		}
	}
	if found != 2 {
		return 0, 0, fmt.Errorf("%s: curves %q and %q at x=%g not found", fig.ID, c.lower, c.higher, x)
	}
	return lower, higher, nil
}

// hashFigure feeds a figure's labels and exact point bits to h.
func hashFigure(h hash.Hash, fig *repro.Figure) {
	var buf [8]byte
	h.Write([]byte(fig.ID))
	for _, cv := range fig.Curves {
		h.Write([]byte(cv.Label))
		for _, p := range cv.Points {
			for _, v := range []float64{p.X, p.Y, p.HalfCI} {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
	}
}
