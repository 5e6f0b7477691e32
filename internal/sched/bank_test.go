package sched

import (
	"fmt"
	"testing"

	"repro/internal/rng"
	"repro/internal/task"
)

// TestBankMatchesQueues drives identical push/pop sequences through a
// Bank and a slice of standalone New queues for every policy × globalsFirst
// combination, including the preempted-task re-queue case (a pushed
// task whose Seq is below every queued task's), and requires identical
// pop order.
func TestBankMatchesQueues(t *testing.T) {
	type input struct {
		p            Policy
		gf           bool
		nodes, steps int
	}
	var inputs []input
	for _, p := range []Policy{EDF, MLF, FCFS} {
		for _, gf := range []bool{false, true} {
			inputs = append(inputs, input{p, gf, 5, 4000})
		}
	}
	// A large-topology EDF bank: 8192 lanes carved from one arena, so
	// any lane whose overflow clobbered a neighbour's carve would show.
	inputs = append(inputs, input{EDF, false, 8192, 40000})
	for _, in := range inputs {
		p, gf, nodes := in.p, in.gf, in.nodes
		name := fmt.Sprintf("%s/globalsFirst=%t", p, gf)
		if nodes != 5 {
			name += fmt.Sprintf("/lanes=%d", nodes)
		}
		t.Run(name, func(t *testing.T) {
			bank := NewBank()
			if err := bank.Configure(nodes, p, gf, 4); err != nil {
				t.Fatal(err)
			}
			ref := make([]Queue, nodes)
			for i := range ref {
				q, err := New(p, gf)
				if err != nil {
					t.Fatal(err)
				}
				ref[i] = q
			}

			r := rng.New(7)
			var seq uint64
			live := make([][]*task.Task, nodes) // tasks currently queued per node
			for step := 0; step < in.steps; step++ {
				i := r.IntN(nodes)
				switch {
				case r.Float64() < 0.55:
					seq++
					tk := &task.Task{
						ID:       seq,
						Seq:      seq,
						Deadline: r.Uniform(0, 100),
						Pex:      r.Uniform(0, 10),
						Class:    task.Local,
					}
					if r.Float64() < 0.4 {
						tk.Class = task.Global
					}
					bank.Push(i, tk)
					ref[i].Push(tk)
					live[i] = append(live[i], tk)
				case r.Float64() < 0.15 && len(live[i]) > 0:
					// Preempted re-queue: pop then push the popped task
					// back; its Seq is the configured minimum of the
					// ordering class it pops from.
					now := r.Uniform(0, 100)
					a, b := bank.Pop(i), ref[i].Pop(now)
					if a != b {
						t.Fatalf("step %d node %d: bank popped %v, queues popped %v", step, i, a, b)
					}
					if a != nil {
						bank.Push(i, a)
						ref[i].Push(a)
					}
				default:
					now := r.Uniform(0, 100)
					a, b := bank.Pop(i), ref[i].Pop(now)
					if a != b {
						t.Fatalf("step %d node %d: bank popped %v, queues popped %v", step, i, a, b)
					}
					if a != nil && len(live[i]) > 0 {
						live[i] = live[i][:len(live[i])-1]
					}
				}
				if bank.Len(i) != ref[i].Len() {
					t.Fatalf("step %d node %d: bank len %d, queues len %d", step, i, bank.Len(i), ref[i].Len())
				}
			}
			// Drain everything and compare the full tail order.
			for i := 0; i < nodes; i++ {
				for {
					a, b := bank.Pop(i), ref[i].Pop(50)
					if a != b {
						t.Fatalf("drain node %d: bank popped %v, queues popped %v", i, a, b)
					}
					if a == nil {
						break
					}
				}
			}
		})
	}
}

// TestBankConfigureReuse checks that a shape-matched reconfigure resets
// in place and a shape change rebuilds, and that lane overflow past the
// arena carve stays confined to the overflowing lane.
func TestBankConfigureReuse(t *testing.T) {
	b := NewBank()
	if err := b.Configure(3, EDF, false, 2); err != nil {
		t.Fatal(err)
	}
	// Overflow node 1's carve; neighbours must keep their tasks intact.
	mk := func(seq uint64, dl float64) *task.Task {
		return &task.Task{ID: seq, Seq: seq, Deadline: dl}
	}
	b.Push(0, mk(1, 9))
	b.Push(2, mk(2, 8))
	for s := uint64(10); s < 20; s++ {
		b.Push(1, mk(s, float64(100-s)))
	}
	if got := b.Len(1); got != 10 {
		t.Fatalf("Len(1) = %d, want 10", got)
	}
	if tk := b.Pop(0); tk == nil || tk.ID != 1 {
		t.Fatalf("Pop(0) = %v, want task 1", tk)
	}
	if tk := b.Pop(2); tk == nil || tk.ID != 2 {
		t.Fatalf("Pop(2) = %v, want task 2", tk)
	}
	// Same shape: reset in place, switching policy is allowed.
	if err := b.Configure(3, FCFS, false, 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if got := b.Len(i); got != 0 {
			t.Fatalf("after reconfigure Len(%d) = %d, want 0", i, got)
		}
	}
	if b.policy != FCFS || b.globalsFirst {
		t.Fatalf("after reconfigure policy=%s globalsFirst=%t, want FCFS without GF", b.policy, b.globalsFirst)
	}
	// Shape change: rebuild.
	if err := b.Configure(4, EDF, true, 2); err != nil {
		t.Fatal(err)
	}
	if b.Nodes() != 4 || b.policy != EDF || !b.globalsFirst || len(b.lanes) != 8 {
		t.Fatalf("after rebuild Nodes=%d policy=%s globalsFirst=%t lanes=%d",
			b.Nodes(), b.policy, b.globalsFirst, len(b.lanes))
	}
	if err := b.Configure(0, EDF, false, 2); err == nil {
		t.Fatal("Configure(0 nodes) succeeded, want error")
	}
	if err := b.Configure(2, Policy("bogus"), false, 2); err == nil {
		t.Fatal("Configure(bogus policy) succeeded, want error")
	}
}
