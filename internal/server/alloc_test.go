//go:build !race

package server_test

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"spacejmp/internal/redis"
	"spacejmp/internal/server"
)

// TestFillAllocations gates what a fill of 16 GETs costs the heap on its way
// through the connection layer to batchBackend and back (not under -race,
// which allocates on its own): 57. The connection layer's own are three — the
// fill's requests in one slab, the batch's pointers into it, the batch — where
// a request allocated each and two slices grown by append made 27 (81 in all,
// 1.5 per command more). The other 54 are the commands' parsed arguments and
// the fake's replies and bookkeeping.
func TestFillAllocations(t *testing.T) {
	nc, _ := serveFake(t, &batchBackend{}, server.Config{})
	var wire, want []byte
	for i := range 16 {
		k := fmt.Sprint("k", i%10)
		wire = redis.AppendCommand(wire, "GET", k)
		want = append(want, redis.EncodeBulk([]byte(k))...)
	}
	got := make([]byte, len(want))
	var err error
	allocs := testing.AllocsPerRun(200, func() {
		if _, err = nc.Write(wire); err == nil {
			_, err = io.ReadFull(nc, got)
		}
	})
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("replies %q (%v), want %q", got, err, want)
	}
	if allocs > 57 {
		t.Errorf("a fill of 16 GETs: %.0f allocations, want at most 57", allocs)
	}
}
