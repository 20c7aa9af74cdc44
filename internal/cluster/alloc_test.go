//go:build !race

package cluster

import "testing"

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

// TestMGetGroupAllocations gates an MGET of 8 keys that is one key group, on
// a remote node and on a co-resident one, at what it cost while a group was
// read into values and the values encoded again: 17 and 18 (a local group
// paid one allocation per value). Running the group as a command, cutting
// its reply in place and joining the pieces costs 15 and 12, and must not
// come to cost more than the old way did.
func TestMGetGroupAllocations(t *testing.T) {
	for _, c := range []struct {
		mode Mode
		max  float64
	}{{ModeURPC, 17}, {ModeVAS, 18}} {
		r, gets := benchRouter(t, c.mode)
		mgets := mget8(r, gets, 0)
		i := 0
		got := testing.AllocsPerRun(500, func() {
			submitWait(r, mgets[i%len(mgets)])
			i++
		})
		if got > c.max {
			t.Errorf("one MGET of 8 keys, one group, through a %s router: %.1f allocations, want at most %.0f", c.mode, got, c.max)
		}
	}
}
