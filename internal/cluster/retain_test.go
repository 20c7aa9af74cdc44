package cluster

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"
	"weak"

	"spacejmp/internal/redis"
	"spacejmp/internal/server"
)

// TestPlanPinsNothingOfAFinishedBatch: once execBatch returns, nothing the
// worker keeps reaches the batch. A large batch on the "auto" rig — MGETs
// across every node, writes on a migrating slot, co-resident, remote and
// frozen runs, stretches between PINGs — has its arguments cut from one
// arena, as a connection's fill cuts them, and a batch of one follows it.
// After a collection, no request of the large batch, no chunk its store
// commands' replies were rendered into and not the arena is left, nor the
// batch of one's request or chunk. A member is plain values, so the plan has
// nothing of it to clear.
func TestPlanPinsNothingOfAFinishedBatch(t *testing.T) {
	if refers(reflect.TypeOf(member{})) {
		t.Fatal("a member holds a reference")
	}
	g := newBatchRig(t, "auto", nil)
	present, _ := rigKeys(g.r)
	slot := g.r.Slot(present[rigRemote][0])
	mig := &migration{}
	g.r.migs[slot].Store(mig)
	defer g.r.migs[slot].Store(nil)

	before := g.counters()
	reqs, chunks, arena := bigBatch(t, g, present)
	oneReq, oneChunk := batchOfOne(t, g, present[rigLocal][0])
	after := g.counters()
	if after[1] == before[1] || after[2] == before[2] || len(mig.take()) == 0 {
		t.Fatalf("local/remote/follower/degraded went from %v to %v, and the migration was touched by no write: the batch missed a path", before, after)
	}

	runtime.GC()
	for i, p := range reqs {
		if p.Value() != nil {
			t.Errorf("request %d of the finished batch is still reachable", i)
		}
	}
	for i, p := range chunks {
		if p.Value() != nil {
			t.Errorf("the chunk reply %d of the finished batch was rendered into is still reachable", i)
		}
	}
	if arena.Value() != nil {
		t.Error("the arena the finished batch's arguments were cut from is still reachable")
	}
	if oneReq.Value() != nil || oneChunk.Value() != nil {
		t.Error("the batch of one's request or reply chunk is still reachable")
	}
}

// batchOfOne runs a GET of key as a batch of its own and returns weak
// pointers to its request and the chunk its reply was rendered into.
func batchOfOne(t *testing.T, g batchRig, key string) (weak.Pointer[server.Request], weak.Pointer[byte]) {
	t.Helper()
	one := request(false, 0, "GET", key)
	g.r.execBatch(g.w, server.NewBatch([]*server.Request{one}))
	if len(one.Reply()) == 0 || one.Reply()[0] != '$' {
		t.Fatalf("the batch of one answered %q", one.Reply())
	}
	return weak.Make(one), weak.Make(&one.Reply()[0])
}

// bigBatch runs the large batch of TestPlanPinsNothingOfAFinishedBatch and
// returns weak pointers to its requests, its store replies' chunks and its
// arena, and nothing else of it.
func bigBatch(t *testing.T, g batchRig, present [rigNodes][]string) (reqs []weak.Pointer[server.Request], chunks []weak.Pointer[byte], arena weak.Pointer[byte]) {
	t.Helper()
	type command struct {
		readonly bool
		argv     []string
	}
	var cmds []command
	for round := range 3 {
		for n, keys := range present {
			cmds = append(cmds,
				command{round != 1, []string{"GET", keys[0]}},
				command{round != 1, []string{"MGET", keys[1], keys[2]}},
				command{false, []string{"SET", keys[3], rigValue(keys[3], 3+round)}},
				command{round == 2, []string{"MGET", keys[0], present[(n+1)%rigNodes][1], present[(n+2)%rigNodes][2], keys[3]}})
		}
		cmds = append(cmds, command{false, []string{"SET", present[rigRemote][0], rigValue(present[rigRemote][0], 3+round)}},
			command{false, []string{"PING"}})
	}

	size := 0
	for _, c := range cmds {
		for _, a := range c.argv {
			size += len(a)
		}
	}
	buf := make([]byte, 0, size)
	batch := make([]*server.Request, len(cmds))
	for i, c := range cmds {
		args := make([]string, len(c.argv))
		for j, a := range c.argv {
			at := len(buf)
			buf = append(buf, a...)
			args[j] = unsafe.String(&buf[at], len(a))
		}
		batch[i] = &server.Request{Args: args, Cmd: redis.Lookup(args), Readonly: c.readonly}
	}
	g.r.execBatch(g.w, server.NewBatch(batch))

	for i, req := range batch {
		reply := req.Reply()
		if len(reply) == 0 || reply[0] == '-' {
			t.Fatalf("command %d %q answered %q", i, req.Args, reply)
		}
		if req.Cmd.By == redis.ByStore {
			chunks = append(chunks, weak.Make(&reply[0]))
		}
		reqs = append(reqs, weak.Make(req))
	}
	return reqs, chunks, weak.Make(&buf[0])
}
