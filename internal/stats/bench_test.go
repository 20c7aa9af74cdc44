package stats

import (
	"sync"
	"testing"
)

// BenchmarkTwoCoresSameASID is what one simulated access records — probe
// cycles, a hit under the tag, data cycles — from two cores at once under one
// tag, as every untagged core (ASID 0) does. With per-core shards the two
// goroutines share no cache line; ns/op is per access per core.
func BenchmarkTwoCoresSameASID(b *testing.B) {
	s := NewSink(2)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(cc *CoreCounters) {
			defer wg.Done()
			for i := 0; i < b.N; i++ {
				cc.AddCycles(CatTLBProbe, 1)
				cc.TLBHits(0, 1)
				cc.AddCycles(CatData, 4)
			}
		}(s.Core(c))
	}
	wg.Wait()
}

var sinkDelta *Snapshot

// BenchmarkSnapshotDelta is what one poll of /stats/delta, the chaos runner or
// the bench warm-up costs: a Snapshot of a populated 8-core sink (every block
// alive, two nodes, tenants and shards) and its Delta against the previous one.
func BenchmarkSnapshotDelta(b *testing.B) {
	s := scriptedSink(8, 16)
	before := s.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		after := s.Snapshot()
		sinkDelta = after.Delta(before)
		before = after
	}
}
