package hw

import (
	"fmt"
	"testing"

	"spacejmp/internal/arch"
)

// benchWords moves runs of the given length with access, from consecutive
// places in a window of pages: 32 pages stay resident in the 16x4 TLB, 512
// sweep past it, so every page's first word misses. sim-cycles/op is the same
// whichever access moves the words.
func benchWords(b *testing.B, words, pages int, access func(c *Core, va arch.VirtAddr, buf []byte) (int, error)) {
	m := NewMachine(SmallTest())
	m.EnableStats(0)
	c := benchCore(b, m, pages)
	buf := make([]byte, words*8)
	window := uint64(pages)*arch.PageSize - uint64(len(buf))
	start := c.Cycles()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := arch.VirtAddr(0x4000 + uint64(i)*uint64(len(buf))%window&^7)
		if _, err := access(c, va, buf); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(c.Cycles()-start)/float64(b.N), "sim-cycles/op")
}

func benchWordsMatrix(b *testing.B, run, loop func(c *Core, va arch.VirtAddr, buf []byte) (int, error)) {
	for _, pages := range []struct {
		name string
		n    int
	}{{"resident", 32}, {"sweep", 512}} {
		for _, words := range []int{16, 128, 512} {
			b.Run(fmt.Sprintf("%s/%dw/run", pages.name, words), func(b *testing.B) { benchWords(b, words, pages.n, run) })
			b.Run(fmt.Sprintf("%s/%dw/word-loop", pages.name, words), func(b *testing.B) { benchWords(b, words, pages.n, loop) })
		}
	}
}

// BenchmarkLoadWords and BenchmarkStoreWords are the run-length rung of the
// ladder: each run length beside the loop of single words it stands for.
func BenchmarkLoadWords(b *testing.B)  { benchWordsMatrix(b, (*Core).LoadWords, refLoadWords) }
func BenchmarkStoreWords(b *testing.B) { benchWordsMatrix(b, (*Core).StoreWords, refStoreWords) }
