package main

import (
	"math"
	"math/rand/v2"
	"time"

	"repro/internal/netdist"
)

// The serve-mix query mix: Zipf-popular design points from the paper
// grid, and a tenth CSV burst queries at 64 nodes. Each query's seed
// window repeats an earlier window of its design point exactly (a cache
// read), overlaps one (a partial hit), or is fresh (misses and
// inserts). No measured client traffic exists for this service, so the
// proportions below are assumed round values, not observations.
const (
	serveHorizon = 2000
	serveReps    = 8
	csvHorizon   = 100
	csvNodes     = 64
	csvReps      = 4
	zipfS        = 1.2
	// serveParallelism bounds each query to one replication at a time
	// (see serveConns).
	serveParallelism = 1
	// blockSize queries make one block of the stream. Every block holds
	// the same slots — design points in Zipf proportions, window kinds
	// in ndKinds proportions, csvSlots CSV queries — in a seeded order,
	// so a run's composition does not depend on its seed: the seed picks
	// the order, the arrival times and the simulation seeds.
	blockSize = 100
	// csvSlots of every block are CSV queries on fresh windows.
	csvSlots = 10
)

// ndKinds is the repeating window-kind pattern of the NDJSON slots,
// 7:1:1 repeat:overlap:fresh, so a block holds 70 full hits, 10
// overlaps, 10 fresh NDJSON and 10 fresh CSV windows.
var ndKinds = []string{"repeat", "repeat", "repeat", "overlap", "repeat", "repeat", "repeat", "fresh", "repeat"}

// query is one POST /run request.
type query struct {
	ID   uint64
	Due  time.Duration // offset from the open-loop start; 0 otherwise
	Spec netdist.JobSpec
	CSV  bool
	Kind string // "repeat", "overlap" or "fresh"
}

// point is one design point of the mix.
type point struct {
	ssp, psp string
	load     float64
	csv      bool
}

// slot is one query of a block before its seed window is drawn.
type slot struct {
	p    point
	kind string
}

// mix draws queries from a seeded stream; the same seed yields the same
// sequence of queries.
type mix struct {
	r         *rand.Rand
	points    []point // NDJSON design points, most popular first
	csvPoints []point
	issued    map[point][]uint64 // starts of every window issued so far
	freshes   map[point][]uint64 // starts of the fresh windows issued so far
	floor     map[uint64]uint64  // lowest seed run so far from each fresh start down
	fresh     uint64             // next fresh window start
	nextID    uint64
	block     []slot // remaining slots of the current block
}

func newMix(seed uint64) *mix {
	r := rand.New(rand.NewPCG(seed, 0x5e7e_5eed))
	var pts []point
	for _, ssp := range []string{"UD", "ED", "EQS", "EQF"} {
		for _, psp := range []string{"UD", "DIV-1"} {
			for _, load := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
				pts = append(pts, point{ssp: ssp, psp: psp, load: load})
			}
		}
	}
	return &mix{
		r:      r,
		points: pts,
		csvPoints: []point{
			{ssp: "UD", psp: "UD", load: 0.3, csv: true},
			{ssp: "UD", psp: "UD", load: 0.5, csv: true},
			{ssp: "EQF", psp: "UD", load: 0.3, csv: true},
			{ssp: "EQF", psp: "UD", load: 0.5, csv: true},
		},
		issued:  make(map[point][]uint64),
		freshes: make(map[point][]uint64),
		floor:   make(map[uint64]uint64),
		// Fresh windows start 64 seeds apart, far above 0, so the
		// overlaps below a window stay clear of seed 0 and, but for a
		// long run of overlaps on one window, of the window below.
		fresh: 1<<20 + r.Uint64N(1<<30)*64,
	}
}

// query builds the next query for a design point and window kind.
func (m *mix) query(p point, kind string) query {
	m.nextID++
	spec := netdist.JobSpec{Horizon: serveHorizon, Load: p.load, SSP: p.ssp, PSP: p.psp, Reps: serveReps, Parallelism: serveParallelism}
	if p.csv {
		spec.Preset, spec.Horizon, spec.Nodes, spec.Reps = "burst", csvHorizon, csvNodes, csvReps
	}
	bases := m.issued[p]
	if len(bases) == 0 {
		kind = "fresh"
	}
	switch kind {
	case "repeat":
		spec.Seed = bases[m.r.IntN(len(bases))]
	case "overlap":
		// The window starts below the lowest seed run so far around an
		// earlier fresh window and ends inside that run: its first
		// replications miss, so its first line waits for a run, and the
		// rest are read from the cache.
		freshes := m.freshes[p]
		base := freshes[m.r.IntN(len(freshes))]
		spec.Seed = m.floor[base] - uint64(1+m.r.IntN(spec.Reps-1))
		m.floor[base] = spec.Seed
	default:
		spec.Seed = m.fresh
		m.fresh += 64
		m.freshes[p] = append(m.freshes[p], spec.Seed)
		m.floor[spec.Seed] = spec.Seed
	}
	if kind != "repeat" {
		m.issued[p] = append(m.issued[p], spec.Seed)
	}
	return query{ID: m.nextID, Spec: spec, CSV: p.csv, Kind: kind}
}

// prefill returns one fresh query per design point, so every point has
// a cached window before the stream starts.
func (m *mix) prefill() []query {
	var qs []query
	for _, p := range append(append([]point(nil), m.points...), m.csvPoints...) {
		qs = append(qs, m.query(p, "fresh"))
	}
	return qs
}

// newBlock lays out one block in its fixed composition: the NDJSON
// slots take design points at evenly spaced quantiles of the Zipf
// popularity (weight of rank k ∝ (k+1)^-zipfS), most popular first,
// with kinds cycling through ndKinds; csvSlots fresh CSV queries cycle
// through the CSV points.
func (m *mix) newBlock() []slot {
	nND := blockSize - csvSlots
	cdf := make([]float64, len(m.points))
	total := 0.0
	for k := range cdf {
		total += math.Pow(float64(k+1), -zipfS)
		cdf[k] = total
	}
	slots := make([]slot, 0, blockSize)
	k := 0
	for j := range nND {
		u := (float64(j) + 0.5) / float64(nND) * total
		for cdf[k] < u {
			k++
		}
		slots = append(slots, slot{p: m.points[k], kind: ndKinds[j%len(ndKinds)]})
	}
	for j := range csvSlots {
		slots = append(slots, slot{p: m.csvPoints[j%len(m.csvPoints)], kind: "fresh"})
	}
	return slots
}

// next draws the following query of the stream.
func (m *mix) next() query {
	if len(m.block) == 0 {
		m.block = m.newBlock()
		m.r.Shuffle(len(m.block), func(i, j int) { m.block[i], m.block[j] = m.block[j], m.block[i] })
	}
	s := m.block[0]
	m.block = m.block[1:]
	return m.query(s.p, s.kind)
}

// openLoop draws the Poisson schedule of the open-loop phase: arrivals
// at rate per second for dur, each with the next query of the stream.
func (m *mix) openLoop(rate float64, dur time.Duration) []query {
	var qs []query
	t := 0.0
	for {
		t += m.r.ExpFloat64() / rate
		if t >= dur.Seconds() {
			return qs
		}
		q := m.next()
		q.Due = time.Duration(t * float64(time.Second))
		qs = append(qs, q)
	}
}
