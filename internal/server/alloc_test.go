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
// which allocates on its own): 24. The connection layer's own are two — the
// fill's arena: the string its arguments are cut from, and their slab. Its
// requests' slab, the batch's pointers into it and the batch are the fill's,
// which the connection reuses fill after fill; made for each fill they were
// three more (27), and before that a command's arguments were two of their
// own (57 in all) and a request allocated each and two slices grown by append
// (81). The other 22 are the fake's replies and bookkeeping.
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
	if allocs > 24 {
		t.Errorf("a fill of 16 GETs: %.0f allocations, want at most 24", allocs)
	}
}
