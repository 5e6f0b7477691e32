package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkEventCoreScaling isolates the event queue: `pending` resident
// events continuously fire and reschedule themselves a random distance
// into the future (a self-scheduling workload like the simulator's
// arrival and completion streams, with the model costs stripped away).
// The binary heap pays O(log pending) sift chains over an array that
// outgrows the cache; the ladder queue's amortized O(1) schedule/pop
// stays flat, which is the scaling headroom the large-topology path
// buys.
func BenchmarkEventCoreScaling(b *testing.B) {
	for _, pending := range []int{1 << 10, 1 << 15, 1 << 20} {
		for _, queue := range []string{"heap", "ladder"} {
			b.Run(fmt.Sprintf("pending=%d/queue=%s", pending, queue), func(b *testing.B) {
				b.ReportAllocs()
				e := newQueueEngine(queue)
				r := rand.New(rand.NewSource(1))
				var cb Callback
				cb = e.Register(func(any) {
					e.MustScheduleCall(r.Float64()*float64(pending), cb, nil)
				})
				for i := 0; i < pending; i++ {
					e.MustScheduleCall(r.Float64()*float64(pending), cb, nil)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.Step()
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
			})
		}
	}
}
