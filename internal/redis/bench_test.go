package redis

import (
	"fmt"
	"testing"

	"spacejmp/internal/core"
	"spacejmp/internal/hw"
	"spacejmp/internal/kernel"
)

func benchClient(b *testing.B) *Client {
	b.Helper()
	sys := kernel.New(hw.NewMachine(hw.SmallTest()))
	proc, err := sys.NewProcess(core.Creds{UID: 1, GID: 1})
	if err != nil {
		b.Fatal(err)
	}
	th, err := proc.NewThread()
	if err != nil {
		b.Fatal(err)
	}
	c, err := NewClient(th, 16<<20)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// benchJmp runs op over 256 keys holding values of size bytes, at the two
// sizes the repo benchmark serves: the short values of serve-vas and the
// 1 KiB ones of serve-mixed. sim-cycles/op is the simulated cost.
func benchJmp(b *testing.B, op func(c *Client, key string, val []byte) error) {
	for _, size := range []int{64, 1024} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			c := benchClient(b)
			val := make([]byte, size)
			keys := make([]string, 256)
			for i := range keys {
				keys[i] = fmt.Sprintf("k%d", i)
				if err := c.Set(keys[i], val); err != nil {
					b.Fatal(err)
				}
			}
			start := c.th.Core.Cycles()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := op(c, keys[i%256], val); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(c.th.Core.Cycles()-start)/float64(b.N), "sim-cycles/op")
		})
	}
}

// BenchmarkJmpGet measures a full RedisJMP GET: two VAS switches plus the
// MMU-mediated hash walk and the value's trip out of the segment.
func BenchmarkJmpGet(b *testing.B) {
	benchJmp(b, func(c *Client, key string, val []byte) error {
		got, ok, err := c.Get(key)
		if err == nil && (!ok || len(got) != len(val)) {
			err = fmt.Errorf("GET %s: %d bytes, found %v", key, len(got), ok)
		}
		return err
	})
}

// BenchmarkJmpSet measures a RedisJMP SET under the exclusive lock.
func BenchmarkJmpSet(b *testing.B) {
	benchJmp(b, func(c *Client, key string, val []byte) error { return c.Set(key, val) })
}

// BenchmarkBaselineGet measures the socket-path baseline.
func BenchmarkBaselineGet(b *testing.B) {
	m := hw.NewMachine(hw.SmallTest())
	server := NewBaselineServer(m.Cores[3])
	client := NewBaselineClient(m.Cores[0], server)
	if err := client.Set("k", []byte("v")); err != nil {
		b.Fatal(err)
	}
	start := client.core.Cycles()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := client.Get("k"); err != nil || !ok {
			b.Fatal(ok, err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(client.core.Cycles()-start)/float64(b.N), "sim-cycles/op")
}
