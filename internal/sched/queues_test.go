package sched

import "repro/internal/task"

// The standalone per-node queues below are the reference the Bank is
// tested against (TestBankMatchesQueues): one independent queue object
// per node, each policy written in its most direct form — EDF and MLF
// as keyed heaps, FCFS as a ring-buffer deque, globals-first as a
// two-queue wrapper. Production always runs the Bank.

// Queue is a standalone ready queue for one node. Pop receives the
// current time because laxity-based policies order by dl − now − pex at
// dispatch time; deadline- and arrival-ordered policies ignore it.
type Queue interface {
	// Push adds a task to the queue.
	Push(t *task.Task)
	// Pop removes and returns the highest-priority task, or nil when
	// empty.
	Pop(now float64) *task.Task
	// Len returns the number of queued tasks.
	Len() int
	// Name identifies the policy ("EDF", "MLF", ...).
	Name() string
}

// New returns a fresh queue for the policy. If globalsFirst is true the
// queue is wrapped in a two-level class-priority queue that always serves
// Global subtasks before Local tasks (the GF strategy, section 5.1),
// preserving the policy's order within each class.
func New(p Policy, globalsFirst bool) (Queue, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	mk := func() Queue {
		switch p {
		case MLF:
			return NewMLF()
		case FCFS:
			return NewFCFS()
		default:
			return NewEDF()
		}
	}
	if !globalsFirst {
		return mk(), nil
	}
	return NewClassPriority(mk(), mk()), nil
}

// edfQueue orders tasks by deadline (earliest first). Deadlines are fixed
// at submission, so the key is cached in the entry at push time.
type edfQueue struct {
	h entryHeap
}

// NewEDF returns an earliest-deadline-first queue.
func NewEDF() Queue {
	return &edfQueue{}
}

// Push implements Queue.
func (q *edfQueue) Push(t *task.Task) { q.h.push(t.Deadline, t) }

// Pop implements Queue.
func (q *edfQueue) Pop(float64) *task.Task { return q.h.pop() }

// Len implements Queue.
func (q *edfQueue) Len() int { return q.h.len() }

// Name implements Queue.
func (q *edfQueue) Name() string { return "EDF" }

// fcfsQueue serves tasks in submission-sequence order. Because arrival
// order is the key, no heap is needed: the queue is a ring-buffer deque
// with O(1) push and pop and no comparisons.
//
// Pushes arrive in increasing Seq order with one exception: a preemptive
// node re-queues the task it suspends, and that task's Seq is smaller
// than every queued task's (it was the minimum when it was dispatched,
// and everything since arrived later). Routing that case to the front of
// the deque reproduces the previous seq-ordered heap exactly.
type fcfsQueue struct {
	buf  []*task.Task
	head int
	n    int
}

// NewFCFS returns a first-come-first-served queue.
func NewFCFS() Queue {
	return &fcfsQueue{}
}

// Push implements Queue.
func (q *fcfsQueue) Push(t *task.Task) {
	if q.n == len(q.buf) {
		q.growTo(2 * q.n)
	}
	if q.n > 0 && t.Seq < q.buf[q.head].Seq {
		// A re-queued (preempted) task resumes its FIFO position.
		q.head = (q.head - 1 + len(q.buf)) % len(q.buf)
		q.buf[q.head] = t
		q.n++
		return
	}
	q.buf[(q.head+q.n)%len(q.buf)] = t
	q.n++
}

// Pop implements Queue.
func (q *fcfsQueue) Pop(float64) *task.Task {
	if q.n == 0 {
		return nil
	}
	t := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return t
}

// Len implements Queue.
func (q *fcfsQueue) Len() int { return q.n }

// Name implements Queue.
func (q *fcfsQueue) Name() string { return "FCFS" }

// growTo resizes the ring to hold capacity tasks, unrolling the queue to
// the front of the new buffer.
func (q *fcfsQueue) growTo(capacity int) {
	if capacity < 8 {
		capacity = 8
	}
	buf := make([]*task.Task, capacity)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf, q.head = buf, 0
}

// mlfQueue implements non-preemptive minimum-laxity-first. Laxity
// dl − now − pex depends on the dispatch time, but `now` is identical for
// all queued tasks at any given Pop, so the ordering is the same as
// ordering by dl − pex, which is static and cached in the entry at push.
type mlfQueue struct {
	h entryHeap
}

// NewMLF returns a minimum-laxity-first queue.
func NewMLF() Queue {
	return &mlfQueue{}
}

// Push implements Queue.
func (q *mlfQueue) Push(t *task.Task) { q.h.push(t.Deadline-t.Pex, t) }

// Pop implements Queue.
func (q *mlfQueue) Pop(float64) *task.Task { return q.h.pop() }

// Len implements Queue.
func (q *mlfQueue) Len() int { return q.h.len() }

// Name implements Queue.
func (q *mlfQueue) Name() string { return "MLF" }

// classPriority is the two-level queue of the GF strategy: global
// subtasks are always served before local tasks; within each class the
// wrapped policy's order applies.
type classPriority struct {
	globals Queue
	locals  Queue
}

// NewClassPriority returns a globals-first wrapper. Both arguments must
// be fresh queues of the same policy.
func NewClassPriority(globals, locals Queue) Queue {
	return &classPriority{globals: globals, locals: locals}
}

// Push implements Queue.
func (q *classPriority) Push(t *task.Task) {
	if t.Class == task.Global {
		q.globals.Push(t)
		return
	}
	q.locals.Push(t)
}

// Pop implements Queue.
func (q *classPriority) Pop(now float64) *task.Task {
	if t := q.globals.Pop(now); t != nil {
		return t
	}
	return q.locals.Pop(now)
}

// Len implements Queue.
func (q *classPriority) Len() int { return q.globals.Len() + q.locals.Len() }

// Name implements Queue.
func (q *classPriority) Name() string { return "GF(" + q.globals.Name() + ")" }

// Heap helpers for the standalone queues.

func (h *entryHeap) len() int { return len(h.items) }

func (h *entryHeap) push(key float64, t *task.Task) {
	h.pushEntry(entry{key: key, seq: t.Seq, t: t})
}

func (h *entryHeap) pop() *task.Task {
	if len(h.items) == 0 {
		return nil
	}
	return h.popEntry().t
}
