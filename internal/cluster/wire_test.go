package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"maps"
	"net"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"spacejmp/internal/hw"
	"spacejmp/internal/kernel"
	"spacejmp/internal/redis"
	"spacejmp/internal/server"
)

// TestSubmittedArgsOwnTheirMemory pins the contract between the connection
// reader and everything behind Backend.Submit: a command's arguments are
// immutable and self-owned. They are kept long after the reader has moved on
// — in the node's replication delta and, as keys, in a live migration's
// touched set — so arguments that aliased the connection's read buffer would
// read back as whatever command came through the buffer later. 10 000
// distinct SETs are pipelined down one connection into a replicated remote
// node whose slot has a migration in flight; every retained entry must
// still say what was sent, and the set must hold exactly the keys written.
func TestSubmittedArgsOwnTheirMemory(t *testing.T) {
	const n = 10000
	_, r, srv := startCluster(t, Config{
		Nodes: 3, Workers: 2, Mode: ModeAuto, Locals: 2,
		Replication: ReplicationConfig{
			Enabled: true,
			// Nothing ships during the test: the window must hold it all.
			ShipEvery: 1 << 30, ShipInterval: time.Hour, DeltaLog: 2 * n,
		},
	}, nil)
	defer srv.Shutdown()

	const remote = 2
	slot := 0
	for r.Owner(slot) != remote {
		slot++
	}
	keys := keysInSlot(t, slot, 16)
	mig := &migration{}
	r.migs[slot].Store(mig)
	defer r.migs[slot].Store(nil)

	sent := make([][]string, n)
	for i := range sent {
		// Lengths vary so frames meet the read buffer's end at every offset.
		sent[i] = []string{"SET", keys[i%len(keys)], fmt.Sprintf("value-%05d-%s", i, strings.Repeat("x", i%97))}
	}
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	werr := make(chan error, 1)
	go func() {
		bw := bufio.NewWriter(nc)
		for _, args := range sent {
			bw.Write(redis.EncodeCommand(args...))
		}
		werr <- bw.Flush()
	}()
	br := bufio.NewReader(nc)
	for i := range sent {
		if v, _, err := redis.ReadReply(br); err != nil || string(v) != "OK" {
			t.Fatalf("SET %d: %q, %v", i, v, err)
		}
	}
	if err := <-werr; err != nil {
		t.Fatal(err)
	}

	check := func(what string, got [][]string) {
		t.Helper()
		if len(got) != n {
			t.Fatalf("%s holds %d entries, want %d", what, len(got), n)
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], sent[i]) {
				t.Fatalf("%s entry %d reads %q, sent %q", what, i, got[i], sent[i])
			}
		}
	}
	entries, dropped := r.nodes[remote].delta.take()
	if dropped != 0 {
		t.Fatalf("replication delta dropped %d entries", dropped)
	}
	check("replication delta", entries)
	if touched := slices.Sorted(maps.Keys(mig.take())); !slices.Equal(touched, slices.Sorted(slices.Values(keys))) {
		t.Fatalf("the migration's touched set holds %q, the SETs wrote %q", touched, keys)
	}
}

// chunkSpy is the router as a connection's backend, noting the reply chunk
// each batch brings along: the one its connection kept from the fills before.
type chunkSpy struct {
	*Router
	mu     sync.Mutex
	chunks map[*byte]int // batches that brought each chunk
}

func (s *chunkSpy) SubmitBatch(connID uint64, b *server.Batch) int {
	if cap(b.Out) > 0 {
		s.mu.Lock()
		s.chunks[&b.Out[:1][0]]++
		s.mu.Unlock()
	}
	return s.Router.SubmitBatch(connID, b)
}

// TestConnectionReusesItsReplyChunk: a connection's batches render their
// replies into one chunk, kept fill after fill, and every reply still reads
// back byte for byte what the command answered. One command at a time, each
// fill's batch after the first brings the chunk the first left. Then a stream
// of distinct values, SETs, GETs and MGETs across co-resident and remote nodes,
// is pipelined fill after fill, so the writer sends one fill's replies while
// later fills render theirs into the chunks it hands back.
func TestConnectionReusesItsReplyChunk(t *testing.T) {
	sys := kernel.New(hw.NewMachine(hw.SmallTest()))
	r, err := New(sys, Config{Nodes: 3, Workers: 1, Mode: ModeAuto, Locals: 2})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.Close()
		t.Fatal(err)
	}
	spy := &chunkSpy{Router: r, chunks: map[*byte]int{}}
	srv := server.NewWithBackend(sys, ln, server.Config{}, spy)
	defer srv.Shutdown() // closes r
	nc, br := dial(t, srv)
	keys := make([]string, 3) // one on each node
	for i := range keys {
		keys[i] = keyOnNode(t, r, i)
	}
	value := func(i int) string { return fmt.Sprintf("v%06d-%s", i, strings.Repeat("x", i%53)) }
	stored := map[string][]byte{}
	expect := func(args []string) []byte {
		switch args[0] {
		case "SET":
			stored[args[1]] = []byte(args[2])
			return []byte("+OK\r\n")
		case "GET":
			return redis.EncodeBulk(stored[args[1]])
		}
		var vals [][]byte
		for _, k := range args[1:] {
			vals = append(vals, stored[k])
		}
		return redis.EncodeArray(vals)
	}
	check := func(what string, want []byte) {
		t.Helper()
		got := make([]byte, len(want))
		nc.SetReadDeadline(time.Now().Add(30 * time.Second))
		if _, err := io.ReadFull(br, got); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if !bytes.Equal(got, want) {
			at := 0
			for at < len(got) && got[at] == want[at] {
				at++
			}
			t.Fatalf("%s: replies differ at byte %d: %q, want %q", what, at, got[at:min(at+40, len(got))], want[at:min(at+40, len(want))])
		}
	}

	const single = 200
	for i := range single {
		args := []string{"GET", keys[i%3]}
		if i%4 == 0 {
			// Short values: no reply outgrows the chunk the first batch made.
			args = []string{"SET", keys[i%3], fmt.Sprint(i)}
		}
		if _, err := nc.Write(redis.EncodeCommand(args...)); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("command %d %q", i, args), expect(args))
	}
	spy.mu.Lock()
	if len(spy.chunks) != 1 || slices.Collect(maps.Values(spy.chunks))[0] != single-1 {
		t.Errorf("%d batches, one command each, brought chunks %v: want the first batch's to every batch after it", single, spy.chunks)
	}
	spy.mu.Unlock()

	const fills = 400
	var want []byte
	var sent [][]byte
	for f := range fills {
		var wire []byte
		for j := range 16 {
			i := f*16 + j
			var args []string
			switch i % 4 {
			case 0, 2:
				args = []string{"SET", keys[i%3], value(i)}
			case 1:
				args = []string{"GET", keys[i%3]}
			default:
				args = append([]string{"MGET"}, keys...)
			}
			wire = redis.AppendCommand(wire, args...)
			want = append(want, expect(args)...)
		}
		sent = append(sent, wire)
	}
	werr := make(chan error, 1)
	go func() {
		for _, wire := range sent {
			if _, err := nc.Write(wire); err != nil {
				werr <- err
				return
			}
		}
		werr <- nil
	}()
	check(fmt.Sprintf("%d pipelined fills", fills), want)
	if err := <-werr; err != nil {
		t.Fatal(err)
	}
}
