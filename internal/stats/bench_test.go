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
				cc.TLBHit(0)
				cc.AddCycles(CatData, 4)
			}
		}(s.Core(c))
	}
	wg.Wait()
}
