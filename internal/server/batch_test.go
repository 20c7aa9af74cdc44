package server_test

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spacejmp/internal/hw"
	"spacejmp/internal/kernel"
	"spacejmp/internal/redis"
	"spacejmp/internal/server"
)

// batchBackend fakes the serving backend to show what the connection layer
// hands it: it keeps the first argument of every request, batch by batch as
// they arrived, takes at most room requests of each (all when room is 0),
// answers a request with its own last argument, and completes a batch only
// once release is closed (at once when it is nil).
type batchBackend struct {
	room    int
	release chan struct{}

	mu      sync.Mutex
	batches [][]string // the first argument of every request, batch by batch
	open    int        // requests taken and not yet answered
	maxOpen int
}

func (b *batchBackend) Bind(uint64) uint64 { return 0 }
func (b *batchBackend) Close() error       { return nil }
func (b *batchBackend) SubmitBatch(_ uint64, batch *server.Batch) int {
	n := len(batch.Reqs)
	if b.room > 0 && n > b.room {
		n = b.room
	}
	batch.Reqs = batch.Reqs[:n]
	var names []string
	for _, r := range batch.Reqs {
		names = append(names, r.Args[1])
	}
	b.mu.Lock()
	b.batches = append(b.batches, names)
	b.open += n
	b.maxOpen = max(b.maxOpen, b.open)
	b.mu.Unlock()
	go func() {
		if b.release != nil {
			<-b.release
		}
		for _, r := range batch.Reqs {
			r.Finish(redis.EncodeBulk([]byte(r.Args[len(r.Args)-1])))
		}
		b.mu.Lock()
		b.open -= n
		b.mu.Unlock()
		batch.Answered(len(batch.Reqs))
	}()
	return n
}

func (b *batchBackend) seen() [][]string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([][]string(nil), b.batches...)
}

func serveFake(t *testing.T, b server.Backend, cfg server.Config) (net.Conn, *bufio.Reader) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return serveFakeOn(t, ln, b, cfg)
}

func serveFakeOn(t *testing.T, ln net.Listener, b server.Backend, cfg server.Config) (net.Conn, *bufio.Reader) {
	t.Helper()
	srv := server.NewWithBackend(newSystem(t, nil), ln, cfg, b)
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		nc.Close()
		srv.Shutdown()
	})
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	return nc, bufio.NewReader(nc)
}

func wantReplies(t *testing.T, br *bufio.Reader, want ...string) {
	t.Helper()
	for i, w := range want {
		v, _, err := redis.ReadReply(br)
		got := string(v)
		if err != nil {
			got = "-" + err.Error()
		}
		if len(got) < len(w) || got[:len(w)] != w {
			t.Fatalf("reply %d: %q, want %q…", i, got, w)
		}
	}
}

// TestFillIsOneBatch: what one write holds reaches the backend as one batch —
// only the commands that need a backend, in order — and comes back in arrival
// order with the reader's own replies in their places.
func TestFillIsOneBatch(t *testing.T) {
	b := &batchBackend{}
	nc, br := serveFake(t, b, server.Config{})
	var wire []byte
	for _, argv := range [][]string{{"GET", "a"}, {"READONLY"}, {"GET", "b"}, {"NOSUCH", "x"}, {"GET", "c"}, {"GET"}} {
		wire = redis.AppendCommand(wire, argv...)
	}
	if _, err := nc.Write(wire); err != nil {
		t.Fatal(err)
	}
	wantReplies(t, br, "a", "OK", "b", "-ERR unknown command", "c", "-ERR wrong number")
	if got := fmt.Sprint(b.seen()); got != "[[a b c]]" {
		t.Errorf("the backend saw %s, want one batch [a b c]", got)
	}
}

// TestPartialCommandWaitsForTheNextFill: the head of a command at the end of
// a buffer fill does not hold up the commands before it — a client may be
// waiting for those replies before it sends the rest.
func TestPartialCommandWaitsForTheNextFill(t *testing.T) {
	b := &batchBackend{}
	nc, br := serveFake(t, b, server.Config{})
	second := redis.EncodeCommand("GET", "second")
	if _, err := nc.Write(append(redis.EncodeCommand("GET", "first"), second[:len(second)-4]...)); err != nil {
		t.Fatal(err)
	}
	wantReplies(t, br, "first")
	if _, err := nc.Write(second[len(second)-4:]); err != nil {
		t.Fatal(err)
	}
	wantReplies(t, br, "second")
	if got := fmt.Sprint(b.seen()); got != "[[first] [second]]" {
		t.Errorf("the backend saw %s, want [[first] [second]]", got)
	}
}

// TestRepliesGoOutAsTheBackendAnswers: the writer does not hold a batch's
// replies for the end of the batch — it writes what the backend has answered
// (Batch.Answered) while the rest still runs, so replies that fill the write
// buffer are on the wire before the batch is done. (Small ones wait in the
// buffer for the one flush at the end, which is the point of batching them.)
func TestRepliesGoOutAsTheBackendAnswers(t *testing.T) {
	hold := make(chan struct{})
	nc, br := serveFake(t, stagedBackend{hold}, server.Config{})
	if _, err := nc.Write(append(redis.EncodeCommand("GET", "a"), redis.EncodeCommand("GET", "b")...)); err != nil {
		t.Fatal(err)
	}
	wantReplies(t, br, strings.Repeat("a", 3*server.ConnBufSize)) // b is not answered yet
	close(hold)
	wantReplies(t, br, strings.Repeat("b", 3*server.ConnBufSize))
}

// stagedBackend answers every request with three write buffers' worth of its
// argument: a batch's first at once, the rest once hold is closed.
type stagedBackend struct{ hold chan struct{} }

func (stagedBackend) Bind(uint64) uint64 { return 0 }
func (stagedBackend) Close() error       { return nil }
func (b stagedBackend) SubmitBatch(_ uint64, batch *server.Batch) int {
	go func() {
		for i, r := range batch.Reqs {
			if i > 0 {
				<-b.hold
			}
			r.Finish(redis.EncodeBulk([]byte(strings.Repeat(r.Args[1], 3*server.ConnBufSize))))
			batch.Answered(i + 1)
		}
	}()
	return len(batch.Reqs)
}

// TestPipelineIsOneFillAndOneWrite: a pipeline crosses the connection layer
// once each way. 16 SETs of 1 KiB values in one client write reach the backend
// as one batch of 16, and their 16 replies of 1 KiB leave in one server write —
// with 4 KiB buffers they were several batches and several writes.
func TestPipelineIsOneFillAndOneWrite(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln}
	b := &batchBackend{}
	nc, br := serveFakeOn(t, cl, b, server.Config{})
	var wire []byte
	var keys, values []string
	for i := range 16 {
		keys = append(keys, fmt.Sprint("k", i))
		values = append(values, strings.Repeat(fmt.Sprint(i%10), 1<<10))
		wire = redis.AppendCommand(wire, "SET", keys[i], values[i])
	}
	if _, err := nc.Write(wire); err != nil {
		t.Fatal(err)
	}
	wantReplies(t, br, values...)
	if got, want := fmt.Sprint(b.seen()), fmt.Sprint([][]string{keys}); got != want {
		t.Errorf("the backend saw %s, want one batch %s", got, want)
	}
	if got := cl.writes.Load(); got != 1 {
		t.Errorf("the replies left in %d writes, want 1", got)
	}
}

// countingListener counts the writes to the connections it accepts.
type countingListener struct {
	net.Listener
	writes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{nc, &l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestPipelineDepthBoundsWhatIsInFlight: however much one write holds, a
// connection never has more than PipelineDepth commands unanswered, and every
// reply still arrives, in order, once the backend lets go.
func TestPipelineDepthBoundsWhatIsInFlight(t *testing.T) {
	b := &batchBackend{release: make(chan struct{})}
	nc, br := serveFake(t, b, server.Config{PipelineDepth: 4})
	var wire []byte
	var want []string
	for i := 0; i < 11; i++ {
		wire = redis.AppendCommand(wire, "GET", fmt.Sprint("k", i))
		want = append(want, fmt.Sprint("k", i))
	}
	if _, err := nc.Write(wire); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // the reader has run as far as the depth lets it
	if got := fmt.Sprint(b.seen()); got != "[[k0 k1 k2 k3]]" {
		t.Errorf("with no reply out yet the backend holds %s, want the first 4", got)
	}
	close(b.release)
	wantReplies(t, br, want...)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.maxOpen > 4 {
		t.Errorf("%d commands were in flight at once; PipelineDepth is 4", b.maxOpen)
	}
}

// TestBackendTakesAPrefix: admission is counted in commands. What a
// saturated backend does not take off the front of a batch is answered
// -BUSY, in place, and the part it took is answered as usual.
func TestBackendTakesAPrefix(t *testing.T) {
	b := &batchBackend{room: 2}
	nc, br := serveFake(t, b, server.Config{})
	var wire []byte
	for _, k := range []string{"a", "b", "c", "d"} {
		wire = redis.AppendCommand(wire, "GET", k)
	}
	if _, err := nc.Write(wire); err != nil {
		t.Fatal(err)
	}
	wantReplies(t, br, "a", "b", "-BUSY", "-BUSY")
}

// deadlineBackend answers every request with the cycle budget it carries.
type deadlineBackend struct{}

func (deadlineBackend) Bind(uint64) uint64 { return 0 }
func (deadlineBackend) Close() error       { return nil }
func (deadlineBackend) SubmitBatch(_ uint64, batch *server.Batch) int {
	n := len(batch.Reqs)
	for _, r := range batch.Reqs {
		r.Finish(redis.EncodeInt(int64(r.Deadline)))
	}
	batch.Answered(n)
	return n
}

// TestDeadlineAtTheMachinesClock: with the rate left unset, DEADLINE <ms>
// converts at the served machine's clock — on M1 (2.66 GHz) 10 ms is 26.6 M
// cycles, not the 20 M of the 2 GHz test machine.
func TestDeadlineAtTheMachinesClock(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewWithBackend(kernel.New(hw.NewMachine(hw.M1())), ln, server.Config{}, deadlineBackend{})
	defer srv.Shutdown()
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := nc.Write(redis.AppendCommand(redis.EncodeCommand("DEADLINE", "10"), "GET", "a")); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	wantReplies(t, br, "OK")
	if v, _, err := redis.ReadReply(br); err != nil || string(v) != "26600000" {
		t.Fatalf("GET under DEADLINE 10 carried a budget of %q cycles (%v), want 26600000", v, err)
	}
}

// TestNewInstallsSink: a server always counts. Built on a machine nobody
// enabled stats on, it installs a sink of its own, and what the connection
// loop counts shows in sys.Stats().
func TestNewInstallsSink(t *testing.T) {
	sys := kernel.New(hw.NewMachine(hw.SmallTest()))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewWithBackend(sys, ln, server.Config{}, &batchBackend{})
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	nc.Write(redis.EncodeCommand("GET", "a"))
	wantReplies(t, bufio.NewReader(nc), "a")
	nc.Close()
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
	snap := sys.Stats().Dense()
	if snap.Server.ConnsAccepted != 1 || snap.Server.ConnsClosed != 1 || snap.Server.Pipeline.Count != 1 {
		t.Errorf("server on a machine without a sink: %+v, want one connection and one fill counted", snap.Server)
	}
}
