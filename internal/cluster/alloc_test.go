//go:build !race

package cluster

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"testing"

	"spacejmp/internal/redis"
	"spacejmp/internal/server"
)

// TestRemoteGetAllocations gates what one GET costs the heap on its way
// through Router.Submit … Wait into a remote node and back (not under
// -race, which allocates on its own). Remote or co-resident, the floor is 2,
// and neither is on the wire path:
//
//	1  server.NewRequest: the Request, which holds its batch of one
//	1  the batch's reply chunk: remote, the node's response is reassembled
//	   into it straight from the ring slots
//
// Encoding the command for the wire, the ring slots, the request frame on
// the node, its arguments (cut from the arena the node keeps, its string
// filled frame after frame), the two VAS switches, the probed keys (compared
// in place) and the reply (read from simulated memory straight into the
// response the node keeps) allocate nothing. It was 4 remote while the node
// cut each frame from an arena of its own (2) and urpc returned an owned
// response (1).
func TestRemoteGetAllocations(t *testing.T) {
	for _, c := range []struct {
		mode Mode
		max  float64
	}{{ModeURPC, 2}, {ModeVAS, 2}} {
		r, gets := benchRouter(t, c.mode)
		i := 0
		got := testing.AllocsPerRun(2000, func() {
			submitWait(r, gets[i%len(gets)])
			i++
		})
		if got > c.max {
			t.Errorf("one GET through a %s router: %.1f allocations, want at most %.0f", c.mode, got, c.max)
		}
	}
}

// TestGroupingAllocations: grouping a batch by node runs in the plan the
// worker keeps. A pipeline of 16 GETs dealt round robin over three nodes
// costs exactly the allocations of the same GETs sorted by node — the same
// three runs, with nothing to group — and both cost only what is outside the
// grouping, none of it per command or per run: the batch and the batch's
// reply chunk, which a remote node's response lands in as a co-resident
// run's replies do. The same holds with every fourth command an MGET of
// three keys, one on each node: split into three parts that ride the three
// runs, its parts cost nothing of their own and its joined reply goes into
// the same chunk, interleaved or sorted. Remote, each node's frame cost 3
// while it had an arena of its own (2) and an owned response (1): 1 + 3·3
// and 1 + 3·3 + 1.
func TestGroupingAllocations(t *testing.T) {
	for _, mode := range []Mode{ModeURPC, ModeVAS} {
		r, gets := benchCluster(t, mode, 3)
		interleaved := roundRobin(r, gets)[0]
		byNode := make([][][]string, 3)
		for _, get := range gets {
			nid := r.Owner(r.Slot(get[1]))
			byNode[nid] = append(byNode[nid], get)
		}
		var mixed [][]string // a GET on each node, then an MGET on all three, four times
		for i := 0; len(mixed) < 16; i += 2 {
			mixed = append(mixed, byNode[0][i], byNode[1][i], byNode[2][i],
				[]string{"MGET", byNode[0][i+1][1], byNode[1][i+1][1], byNode[2][i+1][1]})
		}
		for _, p := range []struct {
			name string
			argv [][]string
			want float64
		}{
			{"16 GETs", interleaved, 1 + 1},
			{"12 GETs and 4 MGETs across the nodes", mixed, 1 + 1},
		} {
			sorted := slices.Clone(p.argv)
			slices.SortStableFunc(sorted, func(a, b []string) int { return r.Owner(r.Slot(a[1])) - r.Owner(r.Slot(b[1])) })
			for _, order := range []struct {
				name string
				argv [][]string
			}{{"interleaved", p.argv}, {"sorted by node", sorted}} {
				reqs := make([]*server.Request, len(order.argv))
				for j, args := range order.argv {
					reqs[j] = &server.Request{Args: args, Cmd: redis.Lookup(args)}
				}
				if got := testing.AllocsPerRun(500, func() { submitPipeline(t, r, reqs) }); got != p.want {
					t.Errorf("%s over three nodes, %s, through a %s router: %.0f allocations, want %.0f", p.name, order.name, mode, got, p.want)
				}
			}
		}
	}
}

// TestMGetGroupAllocations gates an MGET of 8 keys. One key group, on a
// remote node and on a co-resident one, is held at what it cost while a group
// was read into values and the values encoded again, 17 and 18, and then run
// as one command, 6 and 3; rendered into the node's response and the batch's
// reply chunk, 4 and 2. Keys spread over a co-resident and a remote node cost
// 20 while each MGET fanned out on its own, 9 as parts that ride the runs,
// and 5 while the remote part cost its node's arena (2) and an owned response
// (1). Now all three cost 2, none of them the fan's:
//
//	1  server.NewRequest
//	1  the batch's reply chunk: the co-resident part's reply, the remote
//	   part's response, then the joined reply
func TestMGetGroupAllocations(t *testing.T) {
	for _, c := range []struct {
		mode Mode
		node int
		max  float64
	}{{ModeURPC, 0, 2}, {ModeVAS, 0, 2}, {ModeAuto, -1, 2}} {
		r, gets := benchRouter(t, c.mode)
		mgets := mget8(r, gets, c.node)
		i := 0
		got := testing.AllocsPerRun(500, func() {
			submitWait(r, mgets[i%len(mgets)])
			i++
		})
		if got > c.max {
			t.Errorf("one MGET of 8 keys on node %d (-1: any) through a %s router: %.1f allocations, want at most %.0f", c.node, c.mode, got, c.max)
		}
	}
}

// TestPipelineAllocations gates what a fill of 16 GETs costs the heap on its
// whole way: over loopback, through the connection layer, into a router of
// three co-resident nodes and back. Two, the fill's arena — the string its
// arguments are cut from, and their slab — made for each fill so that an
// argument owns its memory. The fill's requests, the batch's pointers into
// them, the batch and the reply chunk are the connection's, reused fill after
// fill: made for each, they were four more (6).
func TestPipelineAllocations(t *testing.T) {
	_, _, srv := startCluster(t, Config{Nodes: 3, Workers: 1, Mode: ModeVAS}, nil)
	defer srv.Shutdown()
	nc, br := dial(t, srv)
	var set, get, want []byte
	for i := range 16 {
		k, v := fmt.Sprintf("key:%02d", i), fmt.Sprintf("value-%02d", i)
		set = redis.AppendCommand(set, "SET", k, v)
		get = redis.AppendCommand(get, "GET", k)
		want = append(want, redis.EncodeBulk([]byte(v))...)
	}
	got := make([]byte, len(want))
	var err error
	fill := func(wire []byte, n int) {
		if _, err = nc.Write(wire); err == nil {
			_, err = io.ReadFull(br, got[:n])
		}
	}
	fill(set, 16*len("+OK\r\n"))
	allocs := testing.AllocsPerRun(1000, func() { fill(get, len(got)) })
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("replies %q (%v), want %q", got, err, want)
	}
	if allocs > 2 {
		t.Errorf("a fill of 16 GETs over three nodes: %.0f allocations, want at most 2", allocs)
	}
}

// TestJoinedMGetAllocations gates the chunk a joined MGET grows. A pipeline
// of 16 MGETs over three co-resident nodes, 1 KiB values, renders three parts
// and a join per MGET, ≈ 96 KiB a batch: more than a reply chunk keeps
// (maxKeptWire), so the batch's replies outgrow it midway, at a join. The
// join that has to grow makes room for the replies still to come, at the reply
// bytes per command the batches before rendered, and the batch costs 3 — the
// batch, its first chunk and the one the join grew — rather than a chunk per
// join from there on (13, while the join grew for itself alone).
func TestJoinedMGetAllocations(t *testing.T) {
	r, gets := benchCluster(t, ModeVAS, 3)
	value := string(bytes.Repeat([]byte{'v'}, 1024))
	byNode := make([][]string, 3)
	for _, get := range gets {
		if resp := submitWait(r, []string{"SET", get[1], value}); string(resp) != "+OK\r\n" {
			t.Fatalf("SET %s: %q", get[1], resp)
		}
		nid := r.Owner(r.Slot(get[1]))
		byNode[nid] = append(byNode[nid], get[1])
	}
	reqs := make([]*server.Request, 16)
	for i := range reqs {
		args := []string{"MGET", byNode[0][i], byNode[1][i], byNode[2][i]}
		reqs[i] = &server.Request{Args: args, Cmd: redis.Lookup(args)}
	}
	want := len("*3\r\n") + 3*len(redis.EncodeBulk([]byte(value)))
	got := testing.AllocsPerRun(200, func() {
		batch := server.NewBatch(reqs)
		for r.SubmitBatch(1, batch) == 0 {
		}
		batch.Wait(len(reqs))
		for _, req := range reqs {
			if len(req.Reply()) != want {
				t.Fatalf("MGET: %q", req.Reply())
			}
		}
	})
	if got > 3 {
		t.Errorf("16 MGETs of 1 KiB values over three nodes: %.1f allocations, want at most 3", got)
	}
}
