package task

import "testing"

func TestPoolRecycles(t *testing.T) {
	p := &Pool{}
	a := p.Get()
	a.ID, a.Deadline, a.Remaining, a.Class = 7, 3.5, 1.25, Global
	p.Put(a)
	if p.Size() != 1 {
		t.Fatalf("Size = %d after Put, want 1", p.Size())
	}
	b := p.Get()
	if b != a {
		t.Fatal("Get did not recycle the released task")
	}
	if *b != (Task{}) {
		t.Fatalf("recycled task not zeroed: %+v", *b)
	}
	if p.Size() != 0 {
		t.Fatalf("Size = %d after Get, want 0", p.Size())
	}
}

func TestPoolGetAllocatesWhenEmpty(t *testing.T) {
	p := &Pool{}
	a, b := p.Get(), p.Get()
	if a == b {
		t.Fatal("two Gets from an empty pool returned the same task")
	}
}

func TestPutNilIsNoOp(t *testing.T) {
	p := &Pool{}
	p.Put(nil)
	if p.Size() != 0 {
		t.Fatalf("Size = %d after Put(nil), want 0", p.Size())
	}
}
