package redis

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"spacejmp/internal/fault"
)

// TestRunAllIsTheRunOfRuns holds RunAll to its k = 1 case: seeded lists of
// GET, MGET, SET, DEL (and the odd PING and refused command) carried out
// command by command by Run on one machine and list by list by RunAll on
// another must give byte-equal replies and byte-equal store segments, and the
// second machine must have switched less by exactly two per command that
// shares its predecessor's VAS — and never have spent more cycles.
func TestRunAllIsTheRunOfRuns(t *testing.T) {
	sysA, a := newClient(t)
	sysB, b := newClient(t)
	rng := rand.New(rand.NewSource(9))
	keys := make([]string, 300)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d:%s", i, strings.Repeat("x", rng.Intn(30)))
	}
	key := func() string { return keys[rng.Intn(len(keys))] }
	var rode uint64
	for round := 0; round < 300; round++ {
		var run []Call
		write := rng.Intn(2) == 0
		for n := 1 + rng.Intn(16); n > 0; n-- {
			if rng.Intn(4) == 0 {
				write = !write
			}
			var args []string
			switch r := rng.Intn(20); {
			case r == 0:
				args = []string{"PING"}
			case r == 1:
				args = []string{"CLUSTER.FORK"} // a node's, not a store's: refused here
			case write && r < 15:
				v := make([]byte, rng.Intn(600))
				rng.Read(v)
				args = []string{"SET", key(), string(v)}
			case write:
				args = []string{"DEL", key()}
			case r < 15:
				args = []string{"GET", key()}
			default:
				args = []string{"MGET", key(), key(), key()}
			}
			run = append(run, Call{Cmd: Lookup(args), Args: args})
		}
		for i := range run {
			if i > 0 && run[i].Cmd.By == ByStore && run[i-1].Cmd.By == ByStore && run[i].Cmd.Write == run[i-1].Cmd.Write {
				rode++
			}
		}
		want := make([][]byte, len(run))
		for i, c := range run {
			want[i] = Run(a, c.Cmd, c.Args)
		}
		RunAll(b, run, nil)
		for i, c := range run {
			if !bytes.Equal(c.Reply, want[i]) {
				t.Fatalf("round %d, command %d %.40q: reply %.60q, alone %.60q", round, i, c.Args, c.Reply, want[i])
			}
		}
		if g, w := sysB.Switches(), sysA.Switches()-2*rode; g != w {
			t.Fatalf("round %d: %d switches, want %d less 2 × %d", round, g, sysA.Switches(), rode)
		}
	}
	if rode == 0 {
		t.Fatal("the generator formed no run")
	}
	if g, w := b.th.Core.Cycles(), a.th.Core.Cycles(); g >= w {
		t.Errorf("runs cost %d cycles, the commands alone %d", g, w)
	}
	ia, _ := sysA.SegmentImageOf(SegName, 0, nil)
	ib, _ := sysB.SegmentImageOf(SegName, 0, nil)
	if !reflect.DeepEqual(ia.Index, ib.Index) || !bytes.Equal(ia.Data, ib.Data) {
		t.Error("the store segments differ")
	}
}

// TestRunAllIntoChunks: a run of 1 KiB SETs and GETs, DELs and an MGET of
// eight keys, rendered into chunks of every size from none to roomy, crosses
// chunk boundaries and still answers each command byte for byte as Run does.
// A reply is capped at its own length, so appending to one leaves the next
// intact; what was in the chunk before is untouched; and a reply is never
// copied once rendered, so the chunk RunAll returns holds its last replies and
// nothing else.
func TestRunAllIntoChunks(t *testing.T) {
	_, a := newClient(t)
	_, b := newClient(t)
	v := strings.Repeat("v", 1024)
	var run []Call
	add := func(args ...string) { run = append(run, Call{Cmd: Lookup(args), Args: args}) }
	keys := []string{"MGET"}
	for i := range 8 {
		k := fmt.Sprint("k", i)
		add("SET", k, v[:1000+3*i])
		keys = append(keys, k)
	}
	for i := range 4 {
		add("GET", keys[1+i])
	}
	add("DEL", "k0")
	add("DEL", "k0")
	add(keys...)
	add("GET", "k5")
	add("PING")
	add("SET", "k0", v)
	add("GET", "nope")

	for _, size := range []int{0, 1, 40, 700, 1100, 3000, 9000, 64 << 10} {
		want := make([][]byte, len(run))
		for i, c := range run {
			want[i] = Run(a, c.Cmd, c.Args)
		}
		chunk := append(make([]byte, 0, 4+size), "head"...)
		out := RunAll(b, run, chunk)
		if string(chunk[:4]) != "head" {
			t.Fatalf("chunk of %d: the bytes before the replies became %q", size, chunk[:4])
		}
		last := 0 // the replies from last on are back to back, up to out's end
		for i, c := range run {
			if !bytes.Equal(c.Reply, want[i]) {
				t.Fatalf("chunk of %d, command %d %.20q: reply %.40q, Run %.40q", size, i, c.Args, c.Reply, want[i])
			}
			if cap(c.Reply) != len(c.Reply) {
				t.Fatalf("chunk of %d: reply %d can be appended to into its neighbour", size, i)
			}
			if i > 0 && addr(c.Reply) != addr(run[i-1].Reply)+uintptr(len(run[i-1].Reply)) {
				last = i
			}
		}
		if end := run[len(run)-1].Reply; addr(out)+uintptr(len(out)) != addr(end)+uintptr(len(end)) {
			t.Fatalf("chunk of %d: the chunk returned does not end in the last reply", size)
		}
		held := len(out)
		if addr(out) == addr(chunk) {
			held -= len("head")
		}
		if rendered := len(bytes.Join(replies(run[last:]), nil)); held != rendered {
			t.Fatalf("chunk of %d: the chunk returned holds %d bytes, its replies %d: a reply was copied", size, held, rendered)
		}
		for i := range len(run) - 1 {
			_ = append(run[i].Reply, "overwrite"...)
			if !bytes.Equal(run[i+1].Reply, want[i+1]) {
				t.Fatalf("chunk of %d: appending to reply %d changed reply %d", size, i, i+1)
			}
		}
	}
}

func addr(b []byte) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(b))) }

func replies(run []Call) [][]byte {
	out := make([][]byte, len(run))
	for i := range run {
		out[i] = run[i].Reply
	}
	return out
}

// TestFailedSwitchRestartsItsChunk: the switch out of a run of GETs fails
// after their 1 KiB replies were rendered and outgrew the chunk. Every
// member's reply is then the switch's error, rendered again from the chunk
// the run began in, and RunAll returns that chunk holding the error replies
// back to back and nothing else.
func TestFailedSwitchRestartsItsChunk(t *testing.T) {
	sys, c := newClient(t)
	var run []Call
	for i := range 3 {
		k := fmt.Sprint("k", i)
		if err := c.Set(k, []byte(strings.Repeat("v", 1024))); err != nil {
			t.Fatal(err)
		}
		run = append(run, Call{Cmd: Lookup([]string{"GET", k}), Args: []string{"GET", k}})
	}
	reg := fault.New(1)
	sys.M.SetFaults(reg)
	reg.Enable(fault.CoreSyscallCrash, fault.OnNth(2)) // the switch in passes, the switch out fails
	chunk := make([]byte, 0, 512)
	out := RunAll(c, run, chunk)
	var want []byte
	for i := range run {
		if !bytes.HasPrefix(run[i].Reply, []byte("-ERR")) {
			t.Fatalf("reply %d: %.40q, want the failed switch's error", i, run[i].Reply)
		}
		want = append(want, run[i].Reply...)
	}
	if addr(out) != addr(chunk) || !bytes.Equal(out, want) {
		t.Fatalf("RunAll returned %.80q (the chunk the run began in: %v), want the error replies back to back there",
			out, addr(out) == addr(chunk))
	}
}

// TestRunMemberFailsAlone: a SET the heap has no room for fails by itself —
// its neighbours in the run are carried out, and the thread is back in its
// primary VAS.
func TestRunMemberFailsAlone(t *testing.T) {
	_, c := newClient(t)
	huge := strings.Repeat("x", 9<<20) // the store segment is 8 MiB
	run := []Call{
		{Args: []string{"SET", "a", "1"}},
		{Args: []string{"SET", "b", huge}},
		{Args: []string{"SET", "c", "3"}},
		{Args: []string{"GET", "c"}},
	}
	for i := range run {
		run[i].Cmd = Lookup(run[i].Args)
	}
	RunAll(c, run, nil)
	for i, want := range []string{"+OK\r\n", "-ERR OOM store segment full\r\n", "+OK\r\n", "$1\r\n3\r\n"} {
		if string(run[i].Reply) != want {
			t.Errorf("reply %d: %.60q, want %q", i, run[i].Reply, want)
		}
	}
	if cur := c.th.Current(); cur != 0 {
		t.Errorf("thread left in VAS handle %d", cur)
	}
}

// TestRepliesAndCommandsBackToBack: a frame of commands decodes one at a time
// with DecodeNextCommand, a response of replies of every kind cuts apart with
// NextReply, both in place of what they were concatenated from; a truncated
// tail is an error, not a short answer.
func TestRepliesAndCommandsBackToBack(t *testing.T) {
	cmds := [][]string{{"GET", "k\r\n"}, {"SET", "k", ""}, {"MGET", "a", "b", "c"}}
	var wire []byte
	for _, c := range cmds {
		if got := len(AppendCommand(nil, c...)); got != CommandSize(c) {
			t.Errorf("CommandSize(%q) = %d, encoded %d", c, CommandSize(c), got)
		}
		wire = AppendCommand(wire, c...)
	}
	rest := wire
	var arena Arena
	for i, want := range cmds {
		var args []string
		var err error
		if args, rest, err = arena.DecodeNextCommand(rest); err != nil || !reflect.DeepEqual(args, want) {
			t.Fatalf("command %d: %q %v, want %q", i, args, err, want)
		}
	}
	if len(rest) != 0 {
		t.Errorf("%d bytes left behind the last command", len(rest))
	}
	if _, _, err := new(Arena).DecodeNextCommand(wire[:len(wire)-3]); err != nil {
		t.Errorf("the first command of a truncated frame: %v", err)
	}

	replies := [][]byte{
		EncodeSimple("OK"), EncodeBulk([]byte("a\r\n$3\r\n")), EncodeBulk(nil), EncodeInt(1),
		EncodeError("no"), EncodeArray([][]byte{[]byte("x"), nil, {}}), EncodeArray(nil), EncodeBulk([]byte{}),
	}
	resp := bytes.Join(replies, nil)
	rest = resp
	for i, want := range replies {
		var got []byte
		var err error
		if got, rest, err = NextReply(rest); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("reply %d: %q %v, want %q", i, got, err, want)
		}
		if cap(got) != len(got) {
			t.Errorf("reply %d can be appended to into its neighbour", i)
		}
	}
	if len(rest) != 0 {
		t.Errorf("%d bytes left behind the last reply", len(rest))
	}
	for cut := 1; cut < len(replies[1]); cut++ {
		if _, _, err := NextReply(replies[1][:cut]); err == nil {
			t.Fatalf("a reply cut at %d of %d bytes was accepted", cut, len(replies[1]))
		}
	}
	if _, _, err := NextReply(nil); err != io.EOF {
		t.Errorf("NextReply of nothing: %v, want io.EOF", err)
	}
}

// TestReadBufferedCommand: behind a command it waited for, a reader takes
// exactly the commands its buffer already holds whole — never the head of one
// whose rest is still on the wire, never anything from the source — and what
// it leaves, ReadCommand reads as if nothing had happened.
func TestReadBufferedCommand(t *testing.T) {
	cmds := [][]string{{"GET", "a"}, {"SET", "b", strings.Repeat("v", 100)}, {"MGET", "a", "b"}, {"PING"}}
	var wire []byte
	var ends []int
	for _, c := range cmds {
		wire = AppendCommand(wire, c...)
		ends = append(ends, len(wire))
	}
	for cut := 0; cut <= len(wire); cut++ {
		// The source delivers wire[:cut], then blocks until released.
		pr, pw := io.Pipe()
		br := bufio.NewReader(pr)
		if cut > 0 {
			go pw.Write(wire[:cut])
			if _, err := br.Peek(cut); err != nil { // one fill holding all of wire[:cut]
				t.Fatal(err)
			}
		}
		whole := 0
		for whole < len(ends) && ends[whole] <= cut {
			whole++
		}
		var arena Arena
		for i := 0; i < whole; i++ {
			args, ok := arena.ReadBufferedCommand(br)
			if !ok || !reflect.DeepEqual(args, cmds[i]) {
				t.Fatalf("cut %d: buffered command %d = %q, %v", cut, i, args, ok)
			}
		}
		if args, ok := arena.ReadBufferedCommand(br); ok {
			t.Fatalf("cut %d: took %q off a buffer that holds no whole command", cut, args)
		}
		go func() {
			pw.Write(wire[cut:])
			pw.Close()
		}()
		for i := whole; i < len(cmds); i++ {
			args, err := ReadCommand(br)
			if err != nil || !reflect.DeepEqual(args, cmds[i]) {
				t.Fatalf("cut %d: command %d after the buffered ones = %q, %v", cut, i, args, err)
			}
		}
	}
	br := bufio.NewReader(strings.NewReader("*1\r\n$4\r\nPING\r\n*x\r\n"))
	if _, err := ReadCommand(br); err != nil {
		t.Fatal(err)
	}
	if args, ok := new(Arena).ReadBufferedCommand(br); ok {
		t.Errorf("took %q off a malformed frame", args)
	}
	if _, err := ReadCommand(br); err == nil {
		t.Error("ReadCommand accepted the malformed frame behind it")
	}
}
