package fork

import (
	"fmt"
	"testing"
	"time"

	"spacejmp/internal/arch"
	"spacejmp/internal/core"
)

// BenchmarkForkSteadyState is one ship cycle of a replicated node as the
// engine sees it — fork (which releases the previous view), 128 writes to
// as many pages (each breaks COW), extract the view's image — measured after
// 10 and after 1000 earlier cycles. The three phases are reported apart; none
// may grow with the number of forks ever taken: every released generation
// folds out of the chain. sim-cycles/op is the node core's charge.
func BenchmarkForkSteadyState(b *testing.B) {
	const segSize, writes = 16 << 20, 128
	for _, warm := range []int{10, 1000} {
		b.Run(fmt.Sprintf("round%d", warm), func(b *testing.B) {
			r := newRigSized(b, segSize)
			e := New(r.sys, nil)
			if err := r.th.VASSwitch(r.h); err != nil {
				b.Fatal(err)
			}
			var forkNs, breakNs, imageNs time.Duration
			var start uint64
			for round := 0; round < warm+b.N; round++ {
				if round == warm {
					start = r.th.Core.Cycles()
					forkNs, breakNs, imageNs = 0, 0, 0
					b.ReportAllocs()
					b.ResetTimer()
				}
				t0 := time.Now()
				if err := r.th.VASSwitch(core.PrimaryHandle); err != nil {
					b.Fatal(err)
				}
				v, err := e.Fork(r.th, 0, liveSeg)
				if err != nil {
					b.Fatal(err)
				}
				if err := r.th.VASSwitch(r.h); err != nil {
					b.Fatal(err)
				}
				t1 := time.Now()
				for w := 0; w < writes; w++ {
					page := (round*37 + w*31) % (segSize / arch.PageSize)
					if err := r.th.Store64(liveBase+arch.VirtAddr(page*arch.PageSize+8*w), uint64(round)); err != nil {
						b.Fatal(err)
					}
				}
				t2 := time.Now()
				forkNs, breakNs = forkNs+t1.Sub(t0), breakNs+t2.Sub(t1)
				if round >= warm {
					if _, err := e.Image(v, 0); err != nil {
						b.Fatal(err)
					}
					imageNs += time.Since(t2)
				}
			}
			b.StopTimer()
			n := float64(b.N)
			b.ReportMetric(float64(forkNs)/n, "fork-ns/op")
			b.ReportMetric(float64(breakNs)/n/writes, "breakcow-ns/write")
			b.ReportMetric(float64(imageNs)/n, "image-ns/op")
			b.ReportMetric(float64(r.th.Core.Cycles()-start)/n, "sim-cycles/op")
			if err := r.th.VASSwitch(core.PrimaryHandle); err != nil {
				b.Fatal(err)
			}
			r.teardown(e)
		})
	}
}
