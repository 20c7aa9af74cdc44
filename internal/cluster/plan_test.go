package cluster

import (
	"maps"
	"slices"
	"testing"

	"spacejmp/internal/redis"
	"spacejmp/internal/server"
)

// The batch rule, stated once, as DESIGN.md "Runs" states it: refPlan is the
// reference plan.make is held to (TestPlanMatchesTheRule), and the per-node
// savings the batch differentials expect are counted on it (batchRig.savings).

// refStep is a step as the rule states it: a barrier — a command the router
// answers (node -1) or a write on a migrating slot — runs alone, and nothing
// crosses it; a run is one node's members, all reads or all writes.
type refStep struct {
	barrier bool
	node    int
	write   bool
	members []refMember
}

// refMember is a command at its place in the batch, or a part of an MGET
// across nodes: that node's keys, in key order.
type refMember struct {
	at   int
	args []string
}

func refPlan(reqs []*server.Request, locate func(string) (int, *migration)) []refStep {
	var steps, seg []refStep // seg: the segment so far, one step per member, in arrival order
	flush := func() {
		var nodes []int // in the order they first appear
		for _, m := range seg {
			if !slices.Contains(nodes, m.node) {
				nodes = append(nodes, m.node)
			}
		}
		for _, n := range nodes {
			j := 0 // n's members so far
			for _, m := range seg {
				if m.node != n {
					continue
				}
				if j == 0 || steps[len(steps)-1].write != m.write {
					steps = append(steps, refStep{node: n, write: m.write})
				}
				j++
				steps[len(steps)-1].members = append(steps[len(steps)-1].members, m.members...)
			}
		}
		seg = nil
	}
	for i, req := range reqs {
		one := refStep{node: -1, write: req.Cmd.Write, members: []refMember{{i, req.Args}}}
		var mig *migration
		switch {
		case req.Cmd.By != redis.ByStore:
			one.barrier = true
		case req.Cmd.Op == redis.OpMGet:
			parts := map[int][]string{}
			for _, k := range req.Cmd.Keys(req.Args) {
				n, _ := locate(k)
				parts[n] = append(parts[n], k)
			}
			for _, n := range slices.Sorted(maps.Keys(parts)) {
				args := req.Args
				if len(parts) > 1 {
					args = append([]string{req.Cmd.Name}, parts[n]...)
				}
				seg = append(seg, refStep{node: n, members: []refMember{{i, args}}})
			}
			continue
		default:
			one.node, mig = locate(req.Args[req.Cmd.FirstKey])
			one.barrier = mig != nil && req.Cmd.Write
		}
		if !one.barrier {
			seg = append(seg, one)
			continue
		}
		flush()
		steps = append(steps, one)
	}
	flush()
	return steps
}

// planned is what plan.make makes of reqs, stretch by stretch as execBatch
// asks for it, in refPlan's terms.
func planned(p *plan, reqs []*server.Request, locate func(string) (int, *migration)) (steps []refStep) {
	for lo, hi := 0, 0; lo < len(reqs); lo = hi {
		if req := reqs[lo]; req.Cmd.By != redis.ByStore {
			steps = append(steps, refStep{barrier: true, node: -1, write: req.Cmd.Write, members: []refMember{{lo, req.Args}}})
			hi = lo + 1
			continue
		}
		hi = p.make(reqs, lo, locate)
		for _, m := range p.members {
			if m.step {
				steps = append(steps, refStep{barrier: m.mig != nil, node: m.node, write: m.req.Cmd.Write})
			}
			steps[len(steps)-1].members = append(steps[len(steps)-1].members, refMember{m.at, m.args})
		}
	}
	return steps
}

func equalSteps(a, b []refStep) bool {
	return slices.EqualFunc(a, b, func(x, y refStep) bool {
		return x.barrier == y.barrier && x.node == y.node && x.write == y.write &&
			slices.EqualFunc(x.members, y.members, func(m, n refMember) bool { return m.at == n.at && slices.Equal(m.args, n.args) })
	})
}

// TestPlanMatchesTheRule holds plan.make to refPlan on every batch of up to
// four commands drawn from a small alphabet on three nodes — GET, SET and DEL
// on two keys per node, an MGET across the nodes (its keys out of node order),
// a PING and a write on a migrating slot — which says, against the reference:
// each node's members in arrival order, cut where Cmd.Write flips; barriers in
// place, nothing crossing them; an MGET's parts in node-id order, each with its
// node's keys in key order. No machine is built: the planner reads nothing
// but its arguments.
func TestPlanMatchesTheRule(t *testing.T) {
	const maxLen = 4
	keys := []string{"a0", "b0", "a1", "b1", "a2", "b2"} // two per node: the digit
	mig := &migration{}
	locate := func(key string) (int, *migration) {
		if key == "m1" {
			return 1, mig
		}
		return int(key[1] - '0'), nil
	}
	var alphabet []*server.Request
	for _, k := range keys {
		alphabet = append(alphabet, request(false, 0, "GET", k), request(false, 0, "SET", k, "v"), request(false, 0, "DEL", k))
	}
	alphabet = append(alphabet, request(false, 0, "MGET", "b2", "a1", "a0", "a2"),
		request(false, 0, "PING"), request(false, 0, "SET", "m1", "v"))

	var p plan
	batches, want := 0, 0
	for n, all := 1, len(alphabet); n <= maxLen; n, all = n+1, all*len(alphabet) {
		want += all
		pick := make([]int, n) // the batch, as letters of the alphabet: an odometer
		for more := true; more; batches++ {
			batch := make([]*server.Request, n)
			for i, a := range pick {
				batch[i] = alphabet[a]
			}
			if got, want := planned(&p, batch, locate), refPlan(batch, locate); !equalSteps(got, want) {
				var argvs [][]string
				for _, req := range batch {
					argvs = append(argvs, req.Args)
				}
				t.Fatalf("%q:\n planned  %v\n the rule %v", argvs, got, want)
			}
			more = false
			for i := n - 1; i >= 0 && !more; i-- {
				pick[i] = (pick[i] + 1) % len(alphabet)
				more = pick[i] != 0
			}
		}
	}
	if batches != want {
		t.Fatalf("%d batches planned, want every one of the %d", batches, want)
	}
}
