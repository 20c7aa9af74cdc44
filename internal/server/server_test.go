package server_test

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"spacejmp/internal/cluster"
	"spacejmp/internal/core"
	"spacejmp/internal/fault"
	"spacejmp/internal/hw"
	"spacejmp/internal/kernel"
	"spacejmp/internal/redis"
	"spacejmp/internal/server"
)

// newSystem boots a small machine and a kernel with the stats sink on.
func newSystem(t *testing.T, reg *fault.Registry) *core.System {
	t.Helper()
	m := hw.NewMachine(hw.SmallTest())
	if reg != nil {
		m.SetFaults(reg)
	}
	sys := kernel.New(m)
	sys.EnableStats(4096)
	return sys
}

// serve boots the serving stack the way spacejmp-server does without
// -cluster: the router over one co-resident node, behind the RESP
// front-end. Every test that boots it is also a drain test: the cleanup
// shuts the server down (Shutdown is idempotent, so tests may do it
// earlier) and holds the drain to zero leaked simulated frames.
func serve(t *testing.T, sys *core.System, workers, queueDepth int, cfg server.Config) (*cluster.Router, *server.Server) {
	t.Helper()
	base := sys.M.PM.AllocatedBytes()
	r, err := cluster.New(sys, cluster.Config{Nodes: 1, Workers: workers, Mode: cluster.ModeVAS, QueueDepth: queueDepth})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.Close()
		t.Fatal(err)
	}
	srv := server.NewWithBackend(sys, ln, cfg, r)
	t.Cleanup(func() {
		if err := srv.Shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := sys.M.PM.CheckLeaks(base); err != nil {
			t.Errorf("frame leak after drain: %v", err)
		}
	})
	return r, srv
}

// startServer is newSystem + serve with one worker and default queues.
func startServer(t *testing.T, reg *fault.Registry) (*core.System, *cluster.Router, *server.Server) {
	t.Helper()
	sys := newSystem(t, reg)
	r, srv := serve(t, sys, 1, 0, server.Config{})
	return sys, r, srv
}

// roundTrip sends one command and reads one reply on an established conn.
func roundTrip(t *testing.T, nc net.Conn, br *bufio.Reader, args ...string) ([]byte, bool, error) {
	t.Helper()
	if _, err := nc.Write(redis.EncodeCommand(args...)); err != nil {
		t.Fatalf("write %v: %v", args, err)
	}
	return redis.ReadReply(br)
}

func TestServerBasicCommands(t *testing.T) {
	_, _, srv := startServer(t, nil)
	defer srv.Shutdown()

	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)

	if v, _, err := roundTrip(t, nc, br, "PING"); err != nil || string(v) != "PONG" {
		t.Fatalf("PING: %q %v", v, err)
	}
	binary := "e\r\ncho\x00\xff"
	if v, _, err := roundTrip(t, nc, br, "ECHO", binary); err != nil || string(v) != binary {
		t.Fatalf("ECHO: %q %v", v, err)
	}
	val := "value\r\nwith\x00binary\xff"
	if v, _, err := roundTrip(t, nc, br, "SET", "k1", val); err != nil || string(v) != "OK" {
		t.Fatalf("SET: %q %v", v, err)
	}
	if v, isNil, err := roundTrip(t, nc, br, "GET", "k1"); err != nil || isNil || string(v) != val {
		t.Fatalf("GET: %q %v %v", v, isNil, err)
	}
	if v, _, err := roundTrip(t, nc, br, "DEL", "k1"); err != nil || string(v) != "1" {
		t.Fatalf("DEL: %q %v", v, err)
	}
	if v, _, err := roundTrip(t, nc, br, "DEL", "k1"); err != nil || string(v) != "0" {
		t.Fatalf("second DEL: %q %v", v, err)
	}
	if _, isNil, err := roundTrip(t, nc, br, "GET", "k1"); err != nil || !isNil {
		t.Fatalf("GET after DEL: isNil=%v err=%v", isNil, err)
	}

	var re redis.ReplyError
	_, _, err = roundTrip(t, nc, br, "FLUSHALL")
	if !errors.As(err, &re) || !strings.Contains(string(re), "unknown command") {
		t.Fatalf("unknown command reply: %v", err)
	}
	_, _, err = roundTrip(t, nc, br, "GET")
	if !errors.As(err, &re) || !strings.Contains(string(re), "wrong number of arguments") {
		t.Fatalf("arity reply: %v", err)
	}

	if v, _, err := roundTrip(t, nc, br, "QUIT"); err != nil || string(v) != "OK" {
		t.Fatalf("QUIT: %q %v", v, err)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("after QUIT: got %v, want EOF", err)
	}
}

func TestServerProtocolErrorReply(t *testing.T) {
	_, _, srv := startServer(t, nil)
	defer srv.Shutdown()

	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write([]byte("HELLO inline\r\n")); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	_, _, err = redis.ReadReply(br)
	var re redis.ReplyError
	if !errors.As(err, &re) || !strings.Contains(string(re), "protocol error") {
		t.Fatalf("protocol error reply: %v", err)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("conn not closed after protocol error: %v", err)
	}
}

// TestRunLoadRefusesBadMix: a config out of range — a mix, a negative count
// or duration, cross-tenant probes without two tenants — is an error before
// the load dials, not a quietly different load: the server accepts no
// connection.
func TestRunLoadRefusesBadMix(t *testing.T) {
	sys := newSystem(t, nil)
	_, srv := serve(t, sys, 1, 128, server.Config{})
	for _, tc := range []struct {
		cfg  server.LoadConfig
		want string
	}{
		{server.LoadConfig{SetPercent: 150}, "load mix"},
		{server.LoadConfig{SetPercent: -1}, "load mix"},
		{server.LoadConfig{SetPercent: 60, MGetPercent: 50}, "load mix"},
		{server.LoadConfig{SetPercent: 20, MGetPercent: -5}, "load mix"},
		{server.LoadConfig{Conns: -5}, "load conns: negative"},
		{server.LoadConfig{Pipeline: -1}, "load pipeline: negative"},
		{server.LoadConfig{Requests: -1}, "load requests: negative"},
		{server.LoadConfig{MGetKeys: -4}, "load mget_keys: negative"},
		{server.LoadConfig{Keys: -512}, "load keys: negative"},
		{server.LoadConfig{ValueSize: -64}, "load value_size: negative"},
		{server.LoadConfig{Tenants: -2}, "load tenants: negative"},
		{server.LoadConfig{StaleReads: true, StaleBound: -time.Second}, "load stale_bound: negative (-1s)"},
		{server.LoadConfig{Deadline: -time.Millisecond}, "load deadline: negative (-1ms)"},
		{server.LoadConfig{Tenants: 1, CrossCheckEvery: 8}, "load cross_check_every"},
	} {
		tc.cfg.Addr = srv.Addr().String()
		if _, err := server.RunLoad(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: RunLoad returned %v, want %q", tc.cfg, err, tc.want)
		}
	}
	// A negative CrossCheckEvery is "no probes", not a mistake.
	if err := (server.LoadConfig{Tenants: 2, CrossCheckEvery: -1}).Check(); err != nil {
		t.Errorf("cross checks disabled: %v", err)
	}
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if n := sys.Stats().Dense().Server.ConnsAccepted; n != 0 {
		t.Errorf("%d connections accepted; a refused mix must not dial", n)
	}
}

// TestServerPipelinedLoad is the acceptance run: 64 concurrent connections,
// pipeline depth 8, mixed GET/SET with binary values, over real TCP.
func TestServerPipelinedLoad(t *testing.T) {
	sys := newSystem(t, nil)
	_, srv := serve(t, sys, 2, 128, server.Config{PipelineDepth: 16})

	cfg := server.LoadConfig{
		Addr:       srv.Addr().String(),
		Conns:      64,
		Pipeline:   8,
		Requests:   64,
		SetPercent: 30,
		Keys:       256,
		ValueSize:  64,
		Seed:       42,
	}
	res, err := server.RunLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(cfg.Conns * cfg.Requests)
	if res.Commands != want {
		t.Errorf("commands = %d, want %d", res.Commands, want)
	}
	if res.Mismatches != 0 {
		t.Errorf("%d GET replies did not match the deterministic value", res.Mismatches)
	}
	if res.Errors != 0 {
		t.Errorf("%d unexpected error replies", res.Errors)
	}
	if res.Latency.Count != want {
		t.Errorf("latency observations = %d, want %d", res.Latency.Count, want)
	}

	if err := srv.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	snap := sys.Stats()
	if snap == nil || snap.Server == nil {
		t.Fatal("no server stats in snapshot")
	}
	s := snap.Server
	if s.ConnsAccepted != uint64(cfg.Conns) || s.ConnsClosed != s.ConnsAccepted {
		t.Errorf("conns accepted/closed = %d/%d, want %d/%d",
			s.ConnsAccepted, s.ConnsClosed, cfg.Conns, cfg.Conns)
	}
	// Every non-QUIT command was either executed by a worker or rejected
	// with a busy reply.
	if s.Commands+s.Busy != want {
		t.Errorf("executed %d + busy %d != %d issued", s.Commands, s.Busy, want)
	}
	if res.Busy != s.Busy {
		t.Errorf("client saw %d busy replies, server counted %d", res.Busy, s.Busy)
	}
	if s.LatencyNs.Count != s.Commands {
		t.Errorf("latency histogram has %d entries, want %d", s.LatencyNs.Count, s.Commands)
	}
	if len(s.Shards) != 2 {
		t.Fatalf("shards = %d, want 2", len(s.Shards))
	}
	var shardCmds, shardConns uint64
	for _, sh := range s.Shards {
		shardCmds += sh.Commands
		shardConns += sh.Conns
	}
	if shardCmds != s.Commands {
		t.Errorf("per-shard commands sum %d != total %d", shardCmds, s.Commands)
	}
	if shardConns != s.ConnsAccepted {
		t.Errorf("per-shard conns sum %d != accepted %d", shardConns, s.ConnsAccepted)
	}
	if s.Pipeline.Max < 2 {
		t.Errorf("no buffer fill held more than 1 command (max %d) despite pipelined load", s.Pipeline.Max)
	}
}

// TestServerBackpressure wedges the single worker behind the store's
// exclusive segment lock and verifies that a full queue answers with busy
// replies instead of buffering, then drains cleanly once unwedged.
func TestServerBackpressure(t *testing.T) {
	sys := newSystem(t, nil)
	_, srv := serve(t, sys, 1, 1, server.Config{PipelineDepth: 16})
	defer srv.Shutdown()

	// The blocker process attaches the write VAS and switches in, taking
	// the store segment's lock exclusively; the worker's next SET blocks.
	proc, err := sys.NewProcess(core.Creds{UID: 7, GID: 1})
	if err != nil {
		t.Fatal(err)
	}
	th, err := proc.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	vid, err := th.VASFind(redis.ShardNames(0).WriteVAS)
	if err != nil {
		t.Fatal(err)
	}
	h, err := th.VASAttach(vid)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.VASSwitch(h); err != nil {
		t.Fatal(err)
	}

	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	const n = 8
	var batch bytes.Buffer
	for i := 0; i < n; i++ {
		batch.Write(redis.EncodeCommand("SET", "x", "y"))
	}
	if _, err := nc.Write(batch.Bytes()); err != nil {
		t.Fatal(err)
	}

	// With the worker wedged, at most two SETs can be absorbed (one in
	// the worker, one in the depth-1 queue); the rest must bounce. A full
	// Stats() snapshot would race against the running worker's core, so
	// poll the sink's own snapshot (atomics only) instead.
	deadline := time.Now().Add(5 * time.Second)
	for sys.M.Observer().Snapshot().Dense().Server.Busy < n-2 {
		if time.Now().After(deadline) {
			t.Fatal("busy rejections never showed up in stats")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Unwedge: the blocked SET acquires the lock and the pipeline drains.
	if err := th.VASSwitch(core.PrimaryHandle); err != nil {
		t.Fatal(err)
	}
	proc.Exit()

	br := bufio.NewReader(nc)
	var ok, busy int
	for i := 0; i < n; i++ {
		v, _, err := redis.ReadReply(br)
		var re redis.ReplyError
		switch {
		case errors.As(err, &re) && errors.Is(re, redis.ErrBusy):
			busy++
		case err == nil && string(v) == "OK":
			ok++
		default:
			t.Fatalf("reply %d: %q %v", i, v, err)
		}
	}
	if ok < 1 || busy < 1 {
		t.Errorf("ok=%d busy=%d, want at least one of each", ok, busy)
	}
	if ok+busy != n {
		t.Errorf("replies = %d, want %d", ok+busy, n)
	}
}

func TestServerFaultInjection(t *testing.T) {
	reg := fault.New(1)
	reg.Enable(fault.SrvAccept, fault.OnNth(1))
	_, _, srv := startServer(t, reg)
	defer srv.Shutdown()

	// First accept is failed by injection: the conn closes without
	// serving a single command.
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := bufio.NewReader(nc).ReadByte(); err == nil {
		t.Error("injected accept failure did not close the connection")
	}
	nc.Close()

	// The server survives; the next connection works.
	nc2, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc2.Close()
	br := bufio.NewReader(nc2)
	if v, _, err := roundTrip(t, nc2, br, "PING"); err != nil || string(v) != "PONG" {
		t.Fatalf("PING after accept fault: %q %v", v, err)
	}

	// Mid-command disconnect: the very next command read severs the conn.
	reg.Enable(fault.SrvConnDrop, fault.OnNth(1))
	if _, err := nc2.Write(redis.EncodeCommand("GET", "a")); err != nil {
		t.Fatal(err)
	}
	nc2.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := br.ReadByte(); err == nil {
		t.Error("injected drop did not sever the connection")
	}

	// Stalls slow a connection but do not break it.
	reg.Enable(fault.SrvConnStall, fault.Always())
	nc3, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc3.Close()
	br3 := bufio.NewReader(nc3)
	if v, _, err := roundTrip(t, nc3, br3, "PING"); err != nil || string(v) != "PONG" {
		t.Fatalf("PING under stall: %q %v", v, err)
	}
	reg.Disable(fault.SrvConnStall)

	if reg.Fired(fault.SrvAccept) != 1 || reg.Fired(fault.SrvConnDrop) != 1 {
		t.Errorf("fired: accept=%d drop=%d, want 1 and 1",
			reg.Fired(fault.SrvAccept), reg.Fired(fault.SrvConnDrop))
	}
}
