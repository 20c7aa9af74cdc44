//go:build !race

package cluster

import (
	"slices"
	"testing"

	"spacejmp/internal/redis"
	"spacejmp/internal/server"
)

// TestRemoteGetAllocations gates what one GET costs the heap on its way
// through Router.Submit … Wait into a remote node and back (not under
// -race, which allocates on its own). The floor is 5, and every one of
// them is outside the wire path:
//
//	1  server.NewRequest: the Request, which holds its batch of one
//	2  redis.DecodeCommand on the node: the argument string and slice
//	1  redis.Run on the node: the reply, which the value is read into
//	   straight from simulated memory
//	1  urpc: the response frame the worker hands the connection
//
// Encoding the command for the wire, the ring slots, the request frame on
// the node, the two VAS switches, the probed keys (compared in place) and the
// reply's trip back allocate nothing. The same GET on a co-resident node is
// the list without the decode and the urpc frame.
func TestRemoteGetAllocations(t *testing.T) {
	for _, c := range []struct {
		mode Mode
		max  float64
	}{{ModeURPC, 5}, {ModeVAS, 2}} {
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

// TestGroupingAllocations: grouping a batch by node runs in scratch space
// the worker keeps. A pipeline of 16 GETs dealt round robin over three nodes
// costs exactly the allocations of the same GETs sorted by node — the same
// three runs, with nothing to group — and both cost only what is outside the
// grouping: the batch, each GET's own (its reply; on a remote node also its
// decoded arguments, two) and, remote, one response frame per node. The same
// holds with every fourth command an MGET of three keys, one on each node:
// split into three parts that ride the three runs, it costs only its parts'
// own (each a GET's, plus one: an array reply grows past its header) and its
// joined reply, interleaved or sorted.
func TestGroupingAllocations(t *testing.T) {
	for _, c := range []struct {
		mode         Mode
		perGet, runs float64
	}{{ModeURPC, 3, 3}, {ModeVAS, 1, 0}} {
		r, gets := benchCluster(t, c.mode, 3)
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
			{"16 GETs", interleaved, 1 + 16*c.perGet + c.runs},
			{"12 GETs and 4 MGETs across the nodes", mixed, 1 + 12*c.perGet + 4*(3*(c.perGet+1)+1) + c.runs},
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
					t.Errorf("%s over three nodes, %s, through a %s router: %.0f allocations, want %.0f", p.name, order.name, c.mode, got, p.want)
				}
			}
		}
	}
}

// TestMGetGroupAllocations gates an MGET of 8 keys. One key group, on a
// remote node and on a co-resident one, is held at what it cost while a group
// was read into values and the values encoded again: 17 and 18 (a local group
// paid one allocation per value); run as one command now, it costs 6 and 3.
// Keys spread over a co-resident and a remote node cost 20 while each MGET
// fanned out on its own. Split into parts that ride the runs, with the fan's
// records in the worker's scratch, they cost 9, none of them the fan's:
//
//	1  server.NewRequest
//	2  the co-resident part's reply (an array grows past its header)
//	5  the remote part: its decoded arguments (2), its reply (2), the
//	   response frame (1)
//	1  the joined reply
func TestMGetGroupAllocations(t *testing.T) {
	for _, c := range []struct {
		mode Mode
		node int
		max  float64
	}{{ModeURPC, 0, 17}, {ModeVAS, 0, 18}, {ModeAuto, -1, 9}} {
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
