package sim

// promoteThreshold is the pending-event count past which an engine
// switches from the binary heap to the ladder queue. Both pop events in
// exactly the same (time, seq) order, so the switch never changes a
// result, only the constant factors. Paper-scale systems (k=6: tens of
// pending events) stay far below it and keep the heap's minimal
// constant factors; a k>=512 topology crosses it during setup.
const promoteThreshold = 512

// This file is the reference implementation of the event-queue seam: a
// binary min-heap ordered by (time, seq), implemented directly
// on the engine's fields so the paper-scale hot path compiles to the
// same tight code it had before the seam existed. Cancellation is by
// tombstone at the engine layer, so the heap keeps no per-event
// position index and its sifts swap bare 16-byte records. ladder.go holds the
// large-topology implementation; the engine dispatches between the two
// with a single branch (qPush and friends in engine.go), and the
// cross-check fuzz tests require identical observable behaviour from
// both.

// before reports whether event a fires before event b: earlier time, or
// FIFO order at equal times. Comparing the packed words at equal times
// is exactly the seq comparison: seqs are unique, so the high seq bits
// always decide before the slot bits could matter.
func before(a, b *event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.packed < b.packed
}

// heapPush inserts an event into the binary heap.
func (e *Engine) heapPush(ev event) {
	e.heap = append(e.heap, ev)
	e.heapUp(len(e.heap) - 1)
}

// heapTimeOf scans for the fire time of the pending event in slot — a
// diagnostic for EventTime, not a hot path.
func (e *Engine) heapTimeOf(slot int32) (float64, bool) {
	for i := range e.heap {
		if e.heap[i].slotIdx() == slot {
			return e.heap[i].time, true
		}
	}
	return 0, false
}

// heapReset drops all events, keeping capacity. Events are pointer-free
// values, so truncation alone releases nothing the GC cares about —
// payload references live in the engine's slot table.
func (e *Engine) heapReset() {
	e.heap = e.heap[:0]
}

// heapRemoveAt deletes the heap element at index i.
func (e *Engine) heapRemoveAt(i int32) {
	last := int32(len(e.heap)) - 1
	if i != last {
		e.heap[i] = e.heap[last]
	}
	e.heap = e.heap[:last]
	if i < last {
		if !e.heapUp(int(i)) {
			e.heapDown(int(i))
		}
	}
}

// heapUp restores the heap property moving index i toward the root;
// reports whether the element moved.
func (e *Engine) heapUp(i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if !before(&e.heap[i], &e.heap[parent]) {
			break
		}
		e.heapSwap(i, parent)
		i = parent
		moved = true
	}
	return moved
}

// heapDown restores the heap property moving index i toward the leaves.
func (e *Engine) heapDown(i int) {
	n := len(e.heap)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && before(&e.heap[right], &e.heap[left]) {
			least = right
		}
		if !before(&e.heap[least], &e.heap[i]) {
			return
		}
		e.heapSwap(i, least)
		i = least
	}
}

func (e *Engine) heapSwap(i, j int) {
	e.heap[i], e.heap[j] = e.heap[j], e.heap[i]
}
