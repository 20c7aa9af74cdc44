package cluster

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"spacejmp/internal/fault"
	"spacejmp/internal/hw"
	"spacejmp/internal/kernel"
	"spacejmp/internal/redis"
	"spacejmp/internal/server"
	"spacejmp/internal/urpc"
)

// The batch path with the connection in front of it: what one write(2) of a
// pipeline comes back as, where the reader — not the router — decides.

// pipeline writes the commands in one write and reads one reply for each, as
// raw bytes: the value, or the error line.
func pipeline(t *testing.T, nc net.Conn, br *bufio.Reader, argvs ...[]string) []string {
	t.Helper()
	var wire []byte
	for _, argv := range argvs {
		wire = redis.AppendCommand(wire, argv...)
	}
	if _, err := nc.Write(wire); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	out := make([]string, len(argvs))
	for i, argv := range argvs {
		var v []byte
		var vals [][]byte
		var err error
		if argv[0] == "MGET" {
			vals, _, err = redis.ReadArrayReply(br)
			v = bytes.Join(vals, []byte{'|'})
		} else {
			v, _, err = redis.ReadReply(br)
		}
		var re redis.ReplyError
		switch {
		case errors.As(err, &re):
			out[i] = "-" + string(re)
		case err != nil:
			t.Fatalf("reply %d of %d (%q): %v", i+1, len(argvs), argv, err)
		default:
			out[i] = string(v)
		}
	}
	return out
}

func dial(t *testing.T, srv *server.Server) (net.Conn, *bufio.Reader) {
	t.Helper()
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return nc, bufio.NewReader(nc)
}

// TestPipelineMatchesOneAtATime sends the same seeded traffic to two
// identical tenant-serving clusters — pipelines of up to 16 in one write to
// one, the same commands one round trip at a time to the other, where every
// batch is a batch of one — and wants byte-equal replies in order and, read
// back key by key, equal stores: the reader's batching, per-command tenant
// admission included, changes no answer.
func TestPipelineMatchesOneAtATime(t *testing.T) {
	for _, mode := range []Mode{ModeVAS, ModeURPC, ModeAuto} {
		t.Run(string(mode), func(t *testing.T) {
			cfg := Config{Nodes: 3, Workers: 1, Mode: mode, Locals: 2, SegSize: 1 << 20}
			_, batchR, batchSrv, _ := startTenantCluster(t, cfg, 2)
			defer batchSrv.Shutdown()
			_, _, oneSrv, _ := startTenantCluster(t, cfg, 2)
			defer oneSrv.Shutdown()
			bnc, bbr := dialAs(t, batchSrv, 0)
			onc, obr := dialAs(t, oneSrv, 0)

			rng := rand.New(rand.NewSource(23))
			keys := make([]string, 24)
			for i := range keys {
				keys[i] = fmt.Sprintf("k%d", i)
			}
			other := redis.TenantKey("t1", "theirs") // no grant: -NOPERM
			key := func() string { return keys[rng.Intn(len(keys))] }
			for i := 0; i < 120; i++ {
				var argvs [][]string
				for n := 1 + rng.Intn(16); n > 0; n-- {
					switch op := rng.Intn(20); {
					case op < 8:
						argvs = append(argvs, []string{"GET", key()})
					case op < 13:
						argvs = append(argvs, []string{"SET", key(), fmt.Sprintf("v%d-%d", i, n)})
					case op < 15:
						argvs = append(argvs, []string{"DEL", key()})
					case op < 17:
						argvs = append(argvs, []string{"MGET", key(), key(), key()})
					case op < 18:
						argvs = append(argvs, []string{"SET", other, "x"})
					case op < 19:
						argvs = append(argvs, []string{[]string{"READONLY", "READWRITE"}[rng.Intn(2)]})
					default:
						argvs = append(argvs, []string{"NOSUCH", key()})
					}
				}
				got := pipeline(t, bnc, bbr, argvs...)
				for j, argv := range argvs {
					if want := pipeline(t, onc, obr, argv)[0]; got[j] != want {
						t.Fatalf("pipeline %d, command %d %q: pipelined %q, alone %q", i, j, argv, got[j], want)
					}
				}
			}
			for _, k := range keys {
				if got, want := pipeline(t, bnc, bbr, []string{"GET", k})[0], pipeline(t, onc, obr, []string{"GET", k})[0]; got != want {
					t.Errorf("GET %s after the run: %q on the pipelined cluster, %q on the other", k, got, want)
				}
			}
			if mode != ModeURPC && batchR.sys.Switches() == 0 {
				t.Error("no VAS switch at all")
			}
		})
	}
}

// TestBatchBoundariesOnTheWire: the rows of TestRunBoundaries that the
// connection decides. A tenant denial is answered by the reader and never
// reaches the backend, so the writes around it arrive as neighbours; QUIT
// ends the fill, and what follows it in the same write is never read; a full
// queue refuses every member, in order, without holding the pipeline up.
func TestBatchBoundariesOnTheWire(t *testing.T) {
	cfg := Config{Nodes: 1, Workers: 1, Mode: ModeVAS, SegSize: 1 << 20, QueueDepth: 4}
	_, r, srv, _ := startTenantCluster(t, cfg, 2)
	defer srv.Shutdown()
	nc, br := dialAs(t, srv, 0)
	other := redis.TenantKey("t1", "theirs")

	switches := r.sys.Switches()
	got := pipeline(t, nc, br, []string{"SET", "a", "1"}, []string{"SET", other, "x"}, []string{"SET", "b", "2"}, []string{"GET", "a"})
	if want := []string{"OK", "-NOPERM", "OK", "1"}; len(got) != 4 || got[0] != want[0] || got[1][:7] != want[1] || got[2] != want[2] || got[3] != want[3] {
		t.Errorf("denial mid-batch: %q, want %q", got, want)
	}
	if d := r.sys.Switches() - switches; d != 4 {
		t.Logf("denial mid-batch: %d switches (4 when the write arrived as one fill: SET a and SET b one run, GET a another)", d)
	}

	// A full queue: wedge the worker behind the topology lock, fill its
	// queue, and the next pipeline bounces whole.
	r.topoMu.Lock()
	first := server.NewBatch([]*server.Request{request(false, 0, "GET", "a")})
	if r.SubmitBatch(1, first) != 1 {
		t.Fatal("the idle worker refused a batch")
	}
	waitFor(t, "the worker to take the first batch", func() bool { return r.workers[0].queued.Load() == 0 })
	var five []*server.Request
	for range 5 {
		five = append(five, request(false, 0, "GET", "a"))
	}
	fill := server.NewBatch(five)
	if took := r.SubmitBatch(1, fill); took != 4 || len(fill.Reqs) != 4 {
		t.Errorf("a batch of 5 into a queue with room for 4: took %d (batch cut to %d), want 4", took, len(fill.Reqs))
	}
	got = pipeline(t, nc, br, []string{"GET", "a"}, []string{"SET", "a", "9"}, []string{"GET", "b"})
	for i, g := range got {
		if len(g) < 5 || g[:5] != "-BUSY" {
			t.Errorf("full queue, reply %d: %q, want -BUSY", i, g)
		}
	}
	r.topoMu.Unlock()
	first.Wait(1)
	fill.Wait(4)
	if got := pipeline(t, nc, br, []string{"GET", "a"}); got[0] != "1" {
		t.Errorf("GET a after the bounced SET: %q, want 1", got[0])
	}
	if busy := r.obs.Snapshot().Dense().Server.Busy; busy != 3 {
		t.Errorf("server.busy = %d, want the bounced pipeline's 3", busy)
	}
	if five[4].Reply() != nil {
		t.Error("the request the queue had no room for was touched")
	}

	got = pipeline(t, nc, br, []string{"SET", "a", "3"}, []string{"QUIT"})
	if got[0] != "OK" || got[1] != "OK" {
		t.Errorf("QUIT mid-batch: %q", got)
	}
	nc2, br2 := dialAs(t, srv, 0)
	if _, err := nc2.Write(append(redis.EncodeCommand("QUIT"), redis.EncodeCommand("SET", "a", "4")...)); err != nil {
		t.Fatal(err)
	}
	if v, _, err := redis.ReadReply(br2); err != nil || string(v) != "OK" {
		t.Fatalf("QUIT: %q %v", v, err)
	}
	if _, _, err := redis.ReadReply(br2); err == nil {
		t.Error("a reply came back for the command behind QUIT")
	}
	nc3, br3 := dialAs(t, srv, 0)
	if got := pipeline(t, nc3, br3, []string{"GET", "a"}); got[0] != "3" {
		t.Errorf("GET a = %q: the SET behind QUIT ran", got[0])
	}
}

// TestCrashMidRun: the cluster.node.crash fault fires on a frame that carries
// a run, behind a co-resident write whose reply the batch's reply chunk
// already holds when the node's tombstone lands behind it. Every member
// answers the retryable timeout — none is acknowledged, none is answered
// twice — the range fails over on that evidence alone (the probes are off),
// and after promotion every write acknowledged before the crash reads back,
// as do the run's once retried. The fence refuses the tombstone by what it
// appended to the chunk, crash bit or not.
func TestCrashMidRun(t *testing.T) {
	reg := fault.New(7)
	cfg := replicatedConfig()
	cfg.Workers = 1
	cfg.Replication.ShipEvery = 4
	cfg.Replication.ShipInterval = time.Hour
	cfg.Replication.ProbeInterval = time.Hour
	m, r, srv := startCluster(t, cfg, reg)
	defer srv.Shutdown()
	obs := m.Observer()
	nc, br := dial(t, srv)

	var keys []string
	lead := "" // a key on co-resident node 0
	for i := 0; len(keys) < 10 || lead == ""; i++ {
		switch k := fmt.Sprintf("crash-%d", i); r.Owner(r.Slot(k)) {
		case 2:
			keys = append(keys, k)
		case 0:
			lead = k
		}
	}
	waitFor(t, "the warming ship", func() bool { return obs.Snapshot().Dense().Cluster.Replication.Ships >= 1 })
	// Six acknowledged writes: four shipped in a generation, two in the
	// delta window a promotion replays.
	for _, k := range keys[:6] {
		if got := pipeline(t, nc, br, []string{"SET", k, "acked-" + k}); got[0] != "OK" {
			t.Fatalf("SET %s: %q", k, got[0])
		}
	}
	waitFor(t, "the write-count ship", func() bool { return obs.Snapshot().Dense().Cluster.Replication.Ships >= 2 })

	frames := func() (n uint64) {
		r.nodes[2].mu.Lock()
		defer r.nodes[2].mu.Unlock()
		req, _ := r.workers[0].eps.get(2).ChannelStats()
		return req.Sends
	}
	before := frames()
	reg.EnableAt(fault.ClusterNodeCrash, 2, "crash the run frame", fault.OnNth(1))
	run := keys[6:]
	argvs := [][]string{{"SET", lead, "lead"}}
	for _, k := range run {
		argvs = append(argvs, []string{"SET", k, "run-" + k})
	}
	for i, got := range pipeline(t, nc, br, argvs...) {
		if i == 0 {
			if got != "OK" {
				t.Errorf("the co-resident write ahead of the run answered %q", got)
			}
		} else if len(got) < 13 || got[:13] != "-SHARDTIMEOUT" {
			t.Errorf("member %d of the crashed run answered %q, want the retryable -SHARDTIMEOUT", i, got)
		}
	}
	if sent := frames() - before; sent != 1 {
		t.Errorf("%d frames went to the node, want the one that crashed it", sent)
	}
	waitFor(t, "promotion on the run's timeouts", func() bool { return obs.Snapshot().Dense().Cluster.Replication.Promotions == 1 })
	for i, got := range pipeline(t, nc, br, argvs...) {
		if got != "OK" {
			t.Errorf("retried member %d: %q", i, got)
		}
	}
	for _, k := range keys[:6] {
		if got := pipeline(t, nc, br, []string{"GET", k}); got[0] != "acked-"+k {
			t.Errorf("acknowledged write %s reads %q after promotion", k, got[0])
		}
	}
	for _, k := range run {
		if got := pipeline(t, nc, br, []string{"GET", k}); got[0] != "run-"+k {
			t.Errorf("retried write %s reads %q", k, got[0])
		}
	}
	if lost := r.Topology()[2].LostUpdates; lost != 0 {
		t.Errorf("%d updates lost", lost)
	}

	// A tombstone whose crash bit the caller has not seen yet: behind a
	// chunk that holds a reply, a response that appended nothing.
	tomb := urpc.Connect(hw.NewMachine(hw.SmallTest()), 0, 1, ringSlots, func([]byte) []byte { return nil })
	chunk := append(make([]byte, 0, 64), "+OK\r\n"...)
	if resp, _, err := new(node).call(tomb, redis.EncodeCommand("GET", lead), chunk, 0); !errors.Is(err, urpc.ErrTimeout) {
		t.Errorf("a tombstone behind %q came back as %q, %v; want a timeout", chunk, resp, err)
	}
}

// TestRemoveNodeAfterPromotion: a promoted node can be removed. Every worker
// holds a client on its standby by then; RemoveNode has them let go of it at
// a batch boundary before it destroys the store, the keys move to the
// survivors, and the drain leaves no frame behind.
func TestRemoveNodeAfterPromotion(t *testing.T) {
	hwCfg := hw.SmallTest()
	hwCfg.CoresPerSocket = 4 // workers, node, monitor, and the engine RemoveNode brings
	hwCfg.Mem.NVMSuperblock = 1 << 20
	m := hw.NewMachine(hwCfg)
	sys := kernel.New(m)
	sys.EnableStats(1024)
	base := m.PM.AllocatedBytes()
	cfg := replicatedConfig()
	cfg.Replication.FollowerReads = true
	r, err := New(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewWithBackend(sys, ln, server.Config{}, r)
	defer srv.Shutdown()
	obs := m.Observer()

	// One connection per worker, so both attach the standby.
	nc1, br1 := dial(t, srv)
	nc2, br2 := dial(t, srv)
	key := keyOnNode(t, r, 2)
	for i := 0; i <= cfg.Replication.ShipEvery; i++ {
		if got := pipeline(t, nc1, br1, []string{"SET", key, "kept"}); got[0] != "OK" {
			t.Fatalf("SET: %q", got[0])
		}
	}
	// A READONLY read leaves a frozen reader behind as well.
	waitForFork(t, r, 2)
	pipeline(t, nc2, br2, []string{"READONLY"}, []string{"GET", key})
	if err := r.KillNode(2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "promotion", func() bool { return obs.Snapshot().Dense().Cluster.Replication.Promotions == 1 })
	for _, c := range []struct {
		nc net.Conn
		br *bufio.Reader
	}{{nc1, br1}, {nc2, br2}} {
		waitFor(t, "the standby to serve", func() bool { return pipeline(t, c.nc, c.br, []string{"GET", key})[0] == "kept" })
	}
	for _, w := range r.workers {
		if w.clients[2] == nil {
			t.Fatalf("worker %d never attached the standby: the test removes nothing", w.id)
		}
	}

	if err := r.RemoveNode(2); err != nil {
		t.Fatalf("RemoveNode of the promoted node: %v", err)
	}
	for _, w := range r.workers {
		if w.clients[2] != nil || w.frozen[2] != nil {
			t.Errorf("worker %d still holds the removed node's store", w.id)
		}
	}
	if got := pipeline(t, nc1, br1, []string{"GET", key}); got[0] != "kept" {
		t.Errorf("GET after the removal: %q", got[0])
	}
	if err := srv.Shutdown(); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	if err := m.PM.CheckLeaks(base); err != nil {
		t.Errorf("frame leak after drain: %v", err)
	}
}
