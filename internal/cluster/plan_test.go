package cluster

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"spacejmp/internal/redis"
	"spacejmp/internal/server"
)

// The batch rule, stated once, as DESIGN.md "Runs" states it: refPlan is the
// reference plan.make is held to (TestPlanMatchesTheRule), and the per-node
// savings the batch differentials expect are counted on it (batchRig.savings).
// TestPlanKeepsKeyOrder states, apart from any rule, what a plan must not move.

// refStep is a step as the rule states it: a barrier — a command the router
// answers (node -1) — runs alone, and nothing crosses it; a run is one node's
// members, all reads or all writes. A write on a migrating slot is a member
// like any other.
type refStep struct {
	barrier bool
	node    int
	write   bool
	members []refMember
}

// refMember is a command at its place in the batch, or a part of an MGET
// across nodes: that node's keys, in key order. mig is the migration a write
// on a migrating slot touches its key in; nil for any other member.
type refMember struct {
	at   int
	args []string
	cmd  *redis.Command
	mig  *migration
}

// conflicts reports whether two members of a node must keep their order: both
// write, or they share a key and one of them writes. Reads commute, and so do
// a read and a write of different keys.
func conflicts(a, b refMember) bool {
	ca, cb := a.cmd, b.cmd
	switch {
	case ca.Write && cb.Write:
		return true
	case !ca.Write && !cb.Write:
		return false
	}
	for _, k := range ca.Keys(a.args) {
		if slices.Contains(cb.Keys(b.args), k) {
			return true
		}
	}
	return false
}

// refPlan is the rule: between barriers, node by node in the order the nodes
// first appear, and each node's members in VAS phases, the first in its first
// member's VAS; a phase is one run of every member left in its VAS that no
// member left ahead of it conflicts with, in arrival order.
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
			var left []refStep // n's members not yet in a run, in arrival order
			for _, m := range seg {
				if m.node == n {
					left = append(left, m)
				}
			}
			for write := left[0].write; len(left) > 0; write = !write {
				run, rest := refStep{node: n, write: write}, left[:0:0]
				for _, m := range left {
					if m.write == write && !slices.ContainsFunc(rest, func(o refStep) bool { return conflicts(o.members[0], m.members[0]) }) {
						run.members = append(run.members, m.members...)
					} else {
						rest = append(rest, m)
					}
				}
				steps, left = append(steps, run), rest
			}
		}
		seg = nil
	}
	for i, req := range reqs {
		one := refStep{node: -1, write: req.Cmd.Write, members: []refMember{{i, req.Args, req.Cmd, nil}}}
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
				seg = append(seg, refStep{node: n, members: []refMember{{i, args, req.Cmd, nil}}})
			}
			continue
		default:
			var mig *migration
			if one.node, mig = locate(req.Args[req.Cmd.FirstKey]); req.Cmd.Write {
				one.members[0].mig = mig
			}
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
// asks for it, in refPlan's terms: a member's command is reqs[at], and a
// write's migration is the one its slot has, as finish looks it up. Each key
// looked up is a slot of its own here, holding what locate says of the key.
func planned(p *plan, reqs []*server.Request, locate func(string) (int, *migration)) (steps []refStep) {
	p.reset()
	p.reqs = reqs
	var migs []*migration // by slot
	owner := func(k string) (int, int) {
		n, mig := locate(k)
		migs = append(migs, mig)
		return n, len(migs) - 1
	}
	for lo, hi := 0, 0; lo < len(reqs); lo = hi {
		if req := reqs[lo]; req.Cmd.By != redis.ByStore {
			steps = append(steps, refStep{barrier: true, node: -1, write: req.Cmd.Write, members: []refMember{{lo, req.Args, req.Cmd, nil}}})
			hi = lo + 1
			continue
		}
		hi = p.make(lo, owner)
		for i := range p.members {
			m := &p.members[i]
			cmd, args := p.reqs[m.at].Cmd, p.args(m)
			var mig *migration
			if cmd.Write {
				mig = migs[m.slot]
			}
			if m.step {
				steps = append(steps, refStep{node: m.node, write: cmd.Write})
			}
			steps[len(steps)-1].members = append(steps[len(steps)-1].members, refMember{m.at, args, cmd, mig})
		}
	}
	return steps
}

func equalSteps(a, b []refStep) bool {
	return slices.EqualFunc(a, b, func(x, y refStep) bool {
		return x.barrier == y.barrier && x.node == y.node && x.write == y.write &&
			slices.EqualFunc(x.members, y.members, func(m, n refMember) bool { return m.at == n.at && slices.Equal(m.args, n.args) && m.mig == n.mig })
	})
}

// planAlphabet is the small scope the planner is tested in: GET, SET and DEL
// on two keys per node of three, an MGET across the nodes (its keys out of
// node order), a PING, and a write and a read on a migrating slot. No machine
// is built: the planner reads nothing but its arguments.
func planAlphabet() ([]*server.Request, func(string) (int, *migration)) {
	mig := &migration{}
	locate := func(key string) (int, *migration) {
		if key == "m1" {
			return 1, mig
		}
		return int(key[1] - '0'), nil
	}
	var alphabet []*server.Request
	for _, k := range []string{"a0", "b0", "a1", "b1", "a2", "b2"} { // two per node: the digit
		alphabet = append(alphabet, request(false, 0, "GET", k), request(false, 0, "SET", k, "v"), request(false, 0, "DEL", k))
	}
	alphabet = append(alphabet, request(false, 0, "MGET", "b2", "a1", "a0", "a2"),
		request(false, 0, "PING"), request(false, 0, "SET", "m1", "v"), request(false, 0, "GET", "m1"))
	return alphabet, locate
}

// everyBatch calls f on every batch of 1 to maxLen letters of alphabet.
func everyBatch(t *testing.T, alphabet []*server.Request, maxLen int, f func(batch []*server.Request)) {
	batches, want := 0, 0
	for n, all := 1, len(alphabet); n <= maxLen; n, all = n+1, all*len(alphabet) {
		want += all
		pick := make([]int, n) // the batch, as letters of the alphabet: an odometer
		batch := make([]*server.Request, n)
		for more := true; more; batches++ {
			for i, a := range pick {
				batch[i] = alphabet[a]
			}
			f(batch)
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

func argvs(batch []*server.Request) (out [][]string) {
	for _, req := range batch {
		out = append(out, req.Args)
	}
	return out
}

// TestPlanMatchesTheRule holds plan.make to refPlan on every batch of up to
// four commands of planAlphabet, which says, against the reference: each
// node's members in VAS phases; barriers in place, nothing crossing them; an
// MGET's parts in node-id order, each with its node's keys in key order; and
// the migration on a migrating slot's write alone. It checks besides that a
// node's steps are together within a stretch, so that its previous run in
// flight is the stretch's last (plan.lastNode).
func TestPlanMatchesTheRule(t *testing.T) {
	alphabet, locate := planAlphabet()
	var p plan
	everyBatch(t, alphabet, 4, func(batch []*server.Request) {
		got, want := planned(&p, batch, locate), refPlan(batch, locate)
		if !equalSteps(got, want) {
			t.Fatalf("%q:\n planned  %v\n the rule %v", argvs(batch), got, want)
		}
		var seen []int // the nodes whose steps the stretch has left behind
		for i, s := range got {
			switch {
			case s.barrier:
				seen = seen[:0]
			case slices.Contains(seen, s.node):
				t.Fatalf("%q: node %d's steps are not together within a stretch: %v", argvs(batch), s.node, got)
			case i+1 < len(got) && got[i+1].node != s.node:
				seen = append(seen, s.node)
			}
		}
	})
}

// refFlips is the rule before VAS phases, as a count: a node's members in
// arrival order, a run at the first and at each Cmd.Write flip.
func refFlips(members []refMember) (runs int) {
	for i, m := range members {
		if i == 0 || m.cmd.Write != members[i-1].cmd.Write {
			runs++
		}
	}
	return runs
}

// TestPlanKeepsKeyOrder checks plan.make, on every batch of up to four
// commands of planAlphabet (five pass too, in about 8 s), against what no rule may move, whatever order it
// picks: every command is placed once (an MGET as parts that hold its keys,
// one per owning node); a run is one node's reads or writes; nothing crosses
// a barrier; members that conflict keep their arrival order; and between two
// barriers a node pays no more runs than it did in arrival order, cut at
// each Cmd.Write flip (refFlips), and at most 2 when none of its reads shares
// a key with its writes.
func TestPlanKeepsKeyOrder(t *testing.T) {
	alphabet, locate := planAlphabet()
	var p plan
	saved := 0 // batches in which some node paid fewer runs than refFlips
	everyBatch(t, alphabet, 4, func(batch []*server.Request) {
		fail := func(format string, a ...any) {
			t.Helper()
			t.Fatalf("%q: %s", argvs(batch), fmt.Sprintf(format, a...))
		}
		steps := planned(&p, batch, locate)
		placed := make([][]refMember, len(batch))
		for _, s := range steps {
			for _, m := range s.members {
				placed[m.at] = append(placed[m.at], m)
				if s.barrier {
					continue
				}
				if m.cmd.Write != s.write {
					fail("%q in a run of the other VAS", m.args)
				}
				for _, k := range m.cmd.Keys(m.args) {
					if n, _ := locate(k); n != s.node {
						fail("%q in node %d's run, its key %s on node %d", m.args, s.node, k, n)
					}
				}
			}
		}
		for at, req := range batch {
			ms := placed[at]
			if req.Cmd.Op != redis.OpMGet {
				if len(ms) != 1 || !slices.Equal(ms[0].args, req.Args) {
					fail("command %d %q placed as %v", at, req.Args, ms)
				}
				continue
			}
			var keys []string
			nodes := map[int]bool{}
			for _, m := range ms {
				n, _ := locate(m.args[1])
				keys, nodes[n] = append(keys, m.args[1:]...), true
			}
			if len(nodes) != len(ms) || !slices.Equal(slices.Sorted(slices.Values(keys)), slices.Sorted(slices.Values(req.Cmd.Keys(req.Args)))) {
				fail("MGET %d %q placed as %v", at, req.Args, ms)
			}
		}
		for b, s := range steps {
			if !s.barrier {
				continue
			}
			at := s.members[0].at
			for i, o := range steps {
				for _, m := range o.members {
					if i < b && m.at > at || i > b && m.at < at {
						fail("%q (command %d) crosses the barrier %q (command %d)", m.args, m.at, batch[at].Args, at)
					}
				}
			}
		}
		// Stretch by stretch, the runs between two barriers.
		for lo := 0; lo < len(steps); {
			hi := lo
			for hi < len(steps) && !steps[hi].barrier {
				hi++
			}
			var byNode [3][]refMember // runs are on nodes 0–2
			var runs [3]int
			for _, s := range steps[lo:hi] {
				runs[s.node]++
				for _, a := range s.members {
					for _, b := range byNode[s.node] { // the node's members planned before a
						if b.at > a.at && conflicts(a, b) {
							fail("%q (command %d) runs before %q (command %d), which it conflicts with", b.args, b.at, a.args, a.at)
						}
					}
					byNode[s.node] = append(byNode[s.node], a)
				}
			}
			for n, ms := range byNode {
				slices.SortFunc(ms, func(a, b refMember) int { return a.at - b.at })
				flips := refFlips(ms)
				if runs[n] > flips {
					fail("node %d pays %d runs, %d in arrival order", n, runs[n], flips)
				}
				if runs[n] < flips {
					saved++
				}
				shared := false // a read and a write of one key
				for _, a := range ms {
					for _, b := range ms {
						shared = shared || a.cmd.Write != b.cmd.Write && conflicts(a, b)
					}
				}
				if !shared && runs[n] > 2 {
					fail("node %d pays %d runs, its reads and writes sharing no key", n, runs[n])
				}
			}
			lo = hi + 1
		}
	})
	if saved == 0 {
		t.Error("no batch let a node pay fewer runs than in arrival order: the alphabet does not reach the reordering")
	}
}
