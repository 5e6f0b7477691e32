package workload

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/task"
)

// emitted is the full identity of one generated task; two runs agree iff
// their emitted sequences are deep-equal.
type emitted struct {
	id, seq                 uint64
	node                    int
	arrival, deadline, firm float64
	exec, pex               float64
}

func record(tk *task.Task) emitted {
	return emitted{
		id: tk.ID, seq: tk.Seq, node: tk.NodeID,
		arrival: tk.Arrival, deadline: tk.Deadline, firm: tk.FirmDeadline,
		exec: tk.Exec, pex: tk.Pex,
	}
}

// fleetCase is one equivalence scenario: per-node rates (0 silences a
// node) and the shared stream parameters.
type fleetCase struct {
	name  string
	rates []float64
	mod   RateModulator
	pex   PexModel
}

// runSources generates the reference stream: one LocalSource per node,
// seeded exactly as the system workspace seeds them.
func runSources(t *testing.T, c fleetCase, seed uint64, horizon float64) []emitted {
	t.Helper()
	eng := sim.New()
	var out []emitted
	var id, seq uint64
	nextID := func() uint64 { id++; return id }
	nextSeq := func() uint64 { seq++; return seq }
	submit := func(tk *task.Task) { out = append(out, record(tk)) }
	pool := &task.Pool{}
	rngs := make([]rng.Source, len(c.rates))
	srcs := make([]LocalSource, len(c.rates))
	for i, rate := range c.rates {
		rngs[i].ReseedStream(seed, rng.StreamHashParts("local-", uint64(i), ""))
		srcs[i].Init(eng)
		err := srcs[i].Reconfigure(&rngs[i], LocalParams{
			Node: i, Rate: rate, MeanExec: 1,
			SlackMin: 0.25, SlackMax: 2.5,
			Pex: c.pex, Mod: c.mod, Pool: pool,
		}, nextID, nextSeq, submit)
		if err != nil {
			t.Fatal(err)
		}
		srcs[i].Start()
	}
	eng.Run(horizon)
	return out
}

// runFleet generates the same stream through a LocalFleet.
func runFleet(t *testing.T, c fleetCase, seed uint64, horizon float64) []emitted {
	t.Helper()
	eng := sim.New()
	var out []emitted
	var id, seq uint64
	f := NewLocalFleet(eng)
	err := f.Configure(len(c.rates), FleetParams{
		MeanExec: 1, SlackMin: 0.25, SlackMax: 2.5,
		Pex: c.pex, Mod: c.mod, Pool: &task.Pool{},
	},
		func() uint64 { id++; return id },
		func() uint64 { seq++; return seq },
		func(tk *task.Task) { out = append(out, record(tk)) })
	if err != nil {
		t.Fatal(err)
	}
	for i, rate := range c.rates {
		if err := f.SeedNode(i, rate, seed, rng.StreamHashParts("local-", uint64(i), "")); err != nil {
			t.Fatal(err)
		}
	}
	f.Start()
	eng.Run(horizon)
	return out
}

// TestFleetMatchesSources pins the fleet's contract: with and without
// modulation, with heterogeneous rates and
// silent nodes, a LocalFleet emits the byte-identical task sequence of
// one LocalSource per node.
func TestFleetMatchesSources(t *testing.T) {
	const horizon = 2000.0
	cases := []fleetCase{
		{name: "default layout", rates: []float64{0.375, 0.375, 0.375, 0.375}},
		{name: "heterogeneous with silent node", rates: []float64{1.5, 0, 0.2, 0.7}},
		{name: "modulated default", rates: []float64{0.5, 0.5, 0.5}, mod: stepMod{on: 0, off: horizon / 2}},
		{name: "pex error", rates: []float64{0.8, 0.8}, pex: PexModel{RelErr: 0.5}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := runSources(t, c, 7, horizon)
			got := runFleet(t, c, 7, horizon)
			if len(want) == 0 {
				t.Fatal("reference run generated no tasks")
			}
			if len(got) != len(want) {
				t.Fatalf("fleet emitted %d tasks, sources %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("task %d diverged:\nfleet   %+v\nsources %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestFleetReuseRegeneratesIdentically pins the warm-workspace contract:
// Configure + SeedNode on a used fleet reproduces the first run exactly.
func TestFleetReuseRegeneratesIdentically(t *testing.T) {
	c := fleetCase{rates: []float64{0.6, 0.6, 0.6}}
	first := runFleet(t, c, 11, 1500)

	// Same fleet object, reconfigured across engine resets.
	eng := sim.New()
	f := NewLocalFleet(eng)
	var second []emitted
	for run := 0; run < 2; run++ {
		eng.Reset()
		var id, seq uint64
		second = second[:0]
		err := f.Configure(len(c.rates), FleetParams{
			MeanExec: 1, SlackMin: 0.25, SlackMax: 2.5, Pool: &task.Pool{},
		},
			func() uint64 { id++; return id },
			func() uint64 { seq++; return seq },
			func(tk *task.Task) { second = append(second, record(tk)) })
		if err != nil {
			t.Fatal(err)
		}
		for i, rate := range c.rates {
			if err := f.SeedNode(i, rate, 11, rng.StreamHashParts("local-", uint64(i), "")); err != nil {
				t.Fatal(err)
			}
		}
		f.Start()
		eng.Run(1500)
		if len(second) != len(first) {
			t.Fatalf("run %d emitted %d tasks, want %d", run, len(second), len(first))
		}
		for i := range first {
			if second[i] != first[i] {
				t.Fatalf("run %d task %d diverged", run, i)
			}
		}
	}
}
