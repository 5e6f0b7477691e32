package node

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/task"
)

type recorder struct {
	done    []*task.Task
	aborted []*task.Task
}

// newTestNode returns the last node of a four-node group, so the tests
// see a non-zero node id.
func newTestNode(t *testing.T, eng *sim.Engine, policy TardyPolicy) (*Node, *recorder) {
	t.Helper()
	rec := &recorder{}
	g := newBankGroup(t, GroupConfig{
		Engine:  eng,
		Policy:  policy,
		OnDone:  func(tk *task.Task) { rec.done = append(rec.done, tk) },
		OnAbort: func(tk *task.Task) { rec.aborted = append(rec.aborted, tk) },
	}, 4)
	return g.Node(3), rec
}

// TestConfigValidation checks that reconfiguring a working group
// rejects every invalid config, like construction does.
func TestConfigValidation(t *testing.T) {
	for _, tt := range badGroupConfigs(t) {
		t.Run(tt.name, func(t *testing.T) {
			g := newBankGroup(t, GroupConfig{Engine: sim.New(), OnDone: func(*task.Task) {}}, 2)
			if err := g.Configure(tt.cfg); err == nil {
				t.Error("Configure succeeded, want error")
			}
		})
	}
}

func TestSingleTaskLifecycle(t *testing.T) {
	eng := sim.New()
	n, rec := newTestNode(t, eng, NoAbort)
	tk := &task.Task{ID: 1, Exec: 2.5, Deadline: 10, Arrival: 0}
	n.Submit(tk)
	if !n.Busy() {
		t.Fatal("node idle after submit")
	}
	eng.RunAll()
	if len(rec.done) != 1 {
		t.Fatalf("done = %d tasks, want 1", len(rec.done))
	}
	if tk.Start != 0 || math.Abs(tk.Finish-2.5) > 1e-12 {
		t.Errorf("Start,Finish = %v,%v want 0,2.5", tk.Start, tk.Finish)
	}
	if tk.Missed() {
		t.Error("task within deadline reported missed")
	}
	if n.Served() != 1 || n.Busy() {
		t.Errorf("Served=%d Busy=%v", n.Served(), n.Busy())
	}
	if math.Abs(n.BusyTime()-2.5) > 1e-12 {
		t.Errorf("BusyTime = %v, want 2.5", n.BusyTime())
	}
}

func TestNonPreemptiveEDFOrder(t *testing.T) {
	// A long task with a late deadline is started first; an urgent task
	// arriving later must wait (non-preemption), then queued tasks go in
	// EDF order.
	eng := sim.New()
	n, rec := newTestNode(t, eng, NoAbort)
	long := &task.Task{ID: 1, Seq: 1, Exec: 10, Deadline: 100}
	urgent := &task.Task{ID: 2, Seq: 2, Exec: 1, Deadline: 5}
	late := &task.Task{ID: 3, Seq: 3, Exec: 1, Deadline: 50}
	n.Submit(long)
	eng.MustSchedule(1, func() { urgent.Arrival = 1; n.Submit(urgent) })
	eng.MustSchedule(2, func() { late.Arrival = 2; n.Submit(late) })
	eng.RunAll()
	if len(rec.done) != 3 {
		t.Fatalf("done = %d, want 3", len(rec.done))
	}
	wantOrder := []uint64{1, 2, 3}
	for i, tk := range rec.done {
		if tk.ID != wantOrder[i] {
			t.Fatalf("completion %d = task %d, want %d", i, tk.ID, wantOrder[i])
		}
	}
	if urgent.Start != 10 {
		t.Errorf("urgent started at %v, want 10 (after the long task)", urgent.Start)
	}
	if !urgent.Missed() {
		t.Error("urgent task should have missed its deadline")
	}
}

func TestAbortAtDispatch(t *testing.T) {
	eng := sim.New()
	n, rec := newTestNode(t, eng, AbortAtDispatch)
	blocker := &task.Task{ID: 1, Seq: 1, Exec: 10, Deadline: 100}
	doomed := &task.Task{ID: 2, Seq: 2, Exec: 1, Deadline: 5} // expires while blocker runs
	alive := &task.Task{ID: 3, Seq: 3, Exec: 1, Deadline: 50}
	n.Submit(blocker)
	eng.MustSchedule(1, func() { n.Submit(doomed) })
	eng.MustSchedule(2, func() { n.Submit(alive) })
	eng.RunAll()
	if len(rec.aborted) != 1 || rec.aborted[0].ID != 2 {
		t.Fatalf("aborted = %v, want task 2 only", rec.aborted)
	}
	if len(rec.done) != 2 {
		t.Fatalf("done = %d, want 2", len(rec.done))
	}
	if n.Aborted() != 1 {
		t.Errorf("Aborted = %d, want 1", n.Aborted())
	}
	// The aborted task consumed no service: alive starts right at 10.
	if alive.Start != 10 {
		t.Errorf("alive.Start = %v, want 10", alive.Start)
	}
}

func TestAbortFirmUsesEndToEndDeadline(t *testing.T) {
	eng := sim.New()
	n, rec := newTestNode(t, eng, AbortFirm)
	blocker := &task.Task{ID: 1, Seq: 1, Exec: 10, Deadline: 100, FirmDeadline: 100}
	// Virtual deadline expires while the blocker runs, but the firm
	// (end-to-end) deadline does not: the task must survive.
	survivor := &task.Task{ID: 2, Seq: 2, Exec: 1, Deadline: 5, FirmDeadline: 50}
	// Both deadlines expire: the task must be discarded.
	doomed := &task.Task{ID: 3, Seq: 3, Exec: 1, Deadline: 5, FirmDeadline: 8}
	n.Submit(blocker)
	eng.MustSchedule(1, func() { n.Submit(survivor); n.Submit(doomed) })
	eng.RunAll()

	if len(rec.aborted) != 1 || rec.aborted[0].ID != 3 {
		t.Fatalf("aborted = %v, want only the firm-expired task 3", rec.aborted)
	}
	if len(rec.done) != 2 {
		t.Fatalf("done = %d, want 2 (blocker + survivor)", len(rec.done))
	}
	if !containsID(rec.done, 2) {
		t.Error("virtually-late but firm-feasible task was not executed")
	}
}

func containsID(tasks []*task.Task, id uint64) bool {
	for _, tk := range tasks {
		if tk.ID == id {
			return true
		}
	}
	return false
}

func TestNoAbortRunsTardyTasks(t *testing.T) {
	eng := sim.New()
	n, rec := newTestNode(t, eng, NoAbort)
	blocker := &task.Task{ID: 1, Seq: 1, Exec: 10, Deadline: 100}
	tardy := &task.Task{ID: 2, Seq: 2, Exec: 1, Deadline: 5}
	n.Submit(blocker)
	eng.MustSchedule(1, func() { n.Submit(tardy) })
	eng.RunAll()
	if len(rec.done) != 2 {
		t.Fatalf("done = %d, want 2 (tardy task still runs)", len(rec.done))
	}
	if !tardy.Missed() {
		t.Error("tardy task should be recorded as missed")
	}
}

func TestIdlePeriodBetweenArrivals(t *testing.T) {
	eng := sim.New()
	n, rec := newTestNode(t, eng, NoAbort)
	a := &task.Task{ID: 1, Exec: 1, Deadline: 10}
	b := &task.Task{ID: 2, Exec: 1, Deadline: 20}
	n.Submit(a)
	eng.MustSchedule(5, func() { b.Arrival = 5; n.Submit(b) })
	eng.RunAll()
	if b.Start != 5 {
		t.Errorf("b.Start = %v, want 5 (server idle in between)", b.Start)
	}
	if got := n.BusyTime(); math.Abs(got-2) > 1e-12 {
		t.Errorf("BusyTime = %v, want 2", got)
	}
	if len(rec.done) != 2 {
		t.Errorf("done = %d, want 2", len(rec.done))
	}
}

func TestSubmitSetsNodeID(t *testing.T) {
	eng := sim.New()
	n, _ := newTestNode(t, eng, NoAbort)
	tk := &task.Task{ID: 1, Exec: 1, Deadline: 10, NodeID: -1}
	n.Submit(tk)
	if tk.NodeID != n.ID() {
		t.Errorf("NodeID = %d, want %d", tk.NodeID, n.ID())
	}
}

func newPreemptiveNode(t *testing.T, eng *sim.Engine) (*Node, *recorder) {
	t.Helper()
	rec := &recorder{}
	g := newBankGroup(t, GroupConfig{
		Engine: eng, Preemptive: true,
		OnDone: func(tk *task.Task) { rec.done = append(rec.done, tk) },
	}, 1)
	return g.Node(0), rec
}

func TestPreemptiveEDF(t *testing.T) {
	eng := sim.New()
	n, rec := newPreemptiveNode(t, eng)
	long := &task.Task{ID: 1, Seq: 1, Exec: 10, Deadline: 100}
	urgent := &task.Task{ID: 2, Seq: 2, Exec: 2, Deadline: 6}
	n.Submit(long)
	eng.MustSchedule(3, func() { urgent.Arrival = 3; n.Submit(urgent) })
	eng.RunAll()

	// urgent preempts at t=3, runs 3..5; long resumes and finishes at
	// 5 + remaining 7 = 12.
	if len(rec.done) != 2 {
		t.Fatalf("done = %d, want 2", len(rec.done))
	}
	if rec.done[0] != urgent || rec.done[1] != long {
		t.Fatalf("completion order = [%d %d], want urgent first", rec.done[0].ID, rec.done[1].ID)
	}
	if urgent.Finish != 5 {
		t.Errorf("urgent.Finish = %v, want 5 (preemptive service)", urgent.Finish)
	}
	if urgent.Missed() {
		t.Error("urgent missed despite preemption")
	}
	if long.Finish != 12 {
		t.Errorf("long.Finish = %v, want 12 (resumed with remaining demand)", long.Finish)
	}
	if long.Start != 0 {
		t.Errorf("long.Start = %v, want first dispatch time 0", long.Start)
	}
	if n.Preemptions() != 1 {
		t.Errorf("Preemptions = %d, want 1", n.Preemptions())
	}
	if got := n.BusyTime(); math.Abs(got-12) > 1e-12 {
		t.Errorf("BusyTime = %v, want 12 (no service lost or duplicated)", got)
	}
}

func TestPreemptionSkippedForLaterDeadline(t *testing.T) {
	eng := sim.New()
	n, rec := newPreemptiveNode(t, eng)
	first := &task.Task{ID: 1, Seq: 1, Exec: 4, Deadline: 10}
	later := &task.Task{ID: 2, Seq: 2, Exec: 1, Deadline: 50}
	n.Submit(first)
	eng.MustSchedule(1, func() { n.Submit(later) })
	eng.RunAll()
	if n.Preemptions() != 0 {
		t.Errorf("Preemptions = %d, want 0 (later deadline must not preempt)", n.Preemptions())
	}
	if rec.done[0] != first {
		t.Error("first task should finish first")
	}
}

func TestPreemptionChain(t *testing.T) {
	// Successively more urgent arrivals nest preemptions.
	eng := sim.New()
	n, _ := newPreemptiveNode(t, eng)
	a := &task.Task{ID: 1, Seq: 1, Exec: 9, Deadline: 100}
	b := &task.Task{ID: 2, Seq: 2, Exec: 5, Deadline: 50}
	c := &task.Task{ID: 3, Seq: 3, Exec: 1, Deadline: 10}
	n.Submit(a)
	eng.MustSchedule(1, func() { n.Submit(b) })
	eng.MustSchedule(2, func() { n.Submit(c) })
	eng.RunAll()
	// c: 2..3. b: 1..2 then 3..7. a: 0..1 then 7..15.
	if c.Finish != 3 || b.Finish != 7 || a.Finish != 15 {
		t.Errorf("finish times = %v/%v/%v, want 3/7/15", c.Finish, b.Finish, a.Finish)
	}
	if n.Preemptions() != 2 {
		t.Errorf("Preemptions = %d, want 2", n.Preemptions())
	}
}

func TestTardyPolicyString(t *testing.T) {
	if NoAbort.String() != "no-abort" || AbortAtDispatch.String() != "abort" {
		t.Error("policy names changed")
	}
	if TardyPolicy(9).String() != "TardyPolicy(9)" {
		t.Error("unknown policy formatting changed")
	}
}
