package redis

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
)

func TestReadCommandBinaryCRLF(t *testing.T) {
	args := []string{"SET", "k\r\ney", "va\r\nl\x00\xffue\r\n"}
	got, err := ReadCommand(bufio.NewReader(bytes.NewReader(EncodeCommand(args...))))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, args) {
		t.Fatalf("got %q, want %q", got, args)
	}
}

func TestDecodeCommandBinaryCRLF(t *testing.T) {
	// The old line-split decoder misparsed exactly this input.
	args := []string{"SET", "a", "1\r\n2"}
	got, err := DecodeCommand(EncodeCommand(args...))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, args) {
		t.Fatalf("got %q, want %q", got, args)
	}
}

func TestReadCommandFragmented(t *testing.T) {
	// One byte per Read call: the length-driven reader must reassemble.
	args := []string{"SET", "key", "binary\r\nvalue"}
	r := bufio.NewReader(iotest.OneByteReader(bytes.NewReader(EncodeCommand(args...))))
	got, err := ReadCommand(r)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, args) {
		t.Fatalf("got %q, want %q", got, args)
	}
}

func TestReadCommandPipelined(t *testing.T) {
	var stream bytes.Buffer
	cmds := [][]string{
		{"SET", "a", "1"},
		{"GET", "a"},
		{"SET", "b", "x\r\ny"},
		{"DEL", "a"},
	}
	for _, c := range cmds {
		stream.Write(EncodeCommand(c...))
	}
	br := bufio.NewReader(&stream)
	for i, want := range cmds {
		got, err := ReadCommand(br)
		if err != nil {
			t.Fatalf("command %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("command %d: got %q, want %q", i, got, want)
		}
	}
	if _, err := ReadCommand(br); err != io.EOF {
		t.Fatalf("after stream: got %v, want io.EOF", err)
	}
}

func TestReadCommandOversizedHeaders(t *testing.T) {
	cases := []string{
		"*999999999\r\n",         // array header over MaxArgs
		"$5\r\nhello\r\n",        // bulk without array header
		"*1\r\n$999999999\r\n",   // bulk length over MaxBulkLen
		"*-1\r\n",                // negative array count
		"*1\r\n$-5\r\n",          // negative bulk length
		"*1\r\n$3\r\nabcde\r\n",  // body longer than header
		"*1\r\n:3\r\n",           // non-bulk array element
		"PING\r\n",               // inline commands unsupported
		"*1\n$4\nPING\n",         // LF-only line endings
		"*2\r\n$4\r\nPING\r\n",   // truncated: fewer elements than promised
		"*1\r\n$10\r\nshort\r\n", // truncated bulk body
		// Lengths are ASCII digits only, as in Redis: strconv.Atoi's "+3"
		// and "-0" are refused.
		"*1\r\n$+4\r\nPING\r\n",
		"*+1\r\n$4\r\nPING\r\n",
		"*1\r\n$-0\r\n\r\n",
		"*-0\r\n",
		"*1\r\n$\r\n\r\n",
		"*1\r\n$4 \r\nPING\r\n",
		// A length header is the type byte and at most 20 characters.
		"*1\r\n$000000000000000000004\r\nPING\r\n",
	}
	for _, in := range cases {
		_, err := ReadCommand(bufio.NewReader(strings.NewReader(in)))
		if err == nil {
			t.Errorf("input %q: expected error", in)
		}
		if err == io.EOF {
			t.Errorf("input %q: mid-message truncation must not be clean io.EOF", in)
		}
	}
}

// allocatedBy reports the heap bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestReadCommandLyingLengthNoHugeAlloc(t *testing.T) {
	// A header claiming MaxBulkLen with no body must fail from truncation,
	// not attempt a 64 MiB allocation first (a frame that outgrows the
	// reader's buffer is gathered as its bytes arrive).
	in := "*1\r\n$67108864\r\nx"
	var err error
	got := allocatedBy(func() { _, err = ReadCommand(bufio.NewReader(strings.NewReader(in))) })
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("got %v, want io.ErrUnexpectedEOF", err)
	}
	if got > 64<<10 {
		t.Errorf("allocated %d bytes for a 17-byte input", got)
	}
}

// ones is an endless stream of '1's after a prefix.
type ones struct {
	prefix string
	sent   int
}

func (o *ones) Read(p []byte) (int, error) {
	n := copy(p, o.prefix)
	o.prefix = o.prefix[n:]
	for i := n; i < len(p); i++ {
		p[i] = '1'
	}
	o.sent += len(p)
	return len(p), nil
}

// TestHeaderLineBounded pins the fix for the unbounded header line: a peer
// that sends '*' and then digits without ever ending the line used to grow
// the reader's line buffer for as long as it kept sending. A header line is
// now refused once it is longer than a header can be — after 23 bytes for a
// length, after the reader's buffer size for a reply line — so 8 MiB of
// '1's cost one buffer, not 8 MiB.
func TestHeaderLineBounded(t *testing.T) {
	for _, c := range []struct {
		prefix string
		read   func(*bufio.Reader) error
	}{
		{"*", func(br *bufio.Reader) error { _, err := ReadCommand(br); return err }},
		{"*1\r\n$", func(br *bufio.Reader) error { _, err := ReadCommand(br); return err }},
		{"$", func(br *bufio.Reader) error { _, _, err := ReadReply(br); return err }},
		{"+", func(br *bufio.Reader) error { _, _, err := ReadReply(br); return err }},
		{"-", func(br *bufio.Reader) error { _, _, err := ReadArrayReply(br); return err }},
		{"*", func(br *bufio.Reader) error { _, _, err := ReadArrayReply(br); return err }},
	} {
		src := &ones{prefix: c.prefix}
		var err error
		got := allocatedBy(func() { err = c.read(bufio.NewReader(io.LimitReader(src, 8<<20))) })
		if !errors.Is(err, ErrProtocol) {
			t.Errorf("%q then 8 MiB of '1': got %v, want ErrProtocol", c.prefix, err)
		}
		if got > 64<<10 {
			t.Errorf("%q then 8 MiB of '1': allocated %d bytes", c.prefix, got)
		}
		if src.sent > 64<<10 {
			t.Errorf("%q then 8 MiB of '1': read %d bytes before refusing", c.prefix, src.sent)
		}
	}
}

func TestReadReplyKinds(t *testing.T) {
	br := bufio.NewReader(strings.NewReader(
		"+OK\r\n:42\r\n-ERR boom\r\n$-1\r\n$6\r\na\r\nb\x00c\r\n"))
	if v, _, err := ReadReply(br); err != nil || string(v) != "OK" {
		t.Fatalf("simple: %q %v", v, err)
	}
	if v, _, err := ReadReply(br); err != nil || string(v) != "42" {
		t.Fatalf("int: %q %v", v, err)
	}
	_, _, err := ReadReply(br)
	var re ReplyError
	if !errors.As(err, &re) || string(re) != "ERR boom" {
		t.Fatalf("error reply: %v", err)
	}
	if _, isNil, err := ReadReply(br); err != nil || !isNil {
		t.Fatalf("null bulk: isNil=%v err=%v", isNil, err)
	}
	if v, _, err := ReadReply(br); err != nil || string(v) != "a\r\nb\x00c" {
		t.Fatalf("binary bulk: %q %v", v, err)
	}
	if _, _, err := ReadReply(br); err != io.EOF {
		t.Fatalf("end: got %v, want io.EOF", err)
	}
}

func TestArrayReplyRoundTrip(t *testing.T) {
	vals := [][]byte{
		[]byte("plain"),
		nil, // missing key: null bulk
		[]byte("bin\r\n\x00\xffary"),
		{}, // present but empty
	}
	wire := EncodeArray(vals)
	got, nils, err := ReadArrayReply(bufio.NewReader(bytes.NewReader(wire)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(vals) {
		t.Fatalf("decoded %d values, want %d", len(got), len(vals))
	}
	wantNil := []bool{false, true, false, false}
	for i := range vals {
		if nils[i] != wantNil[i] {
			t.Errorf("nils[%d] = %v, want %v", i, nils[i], wantNil[i])
		}
		if !wantNil[i] && !bytes.Equal(got[i], vals[i]) {
			t.Errorf("vals[%d] = %q, want %q", i, got[i], vals[i])
		}
	}

	// Cut in place, each element the encoding of its value; joined back, the
	// same bytes; joined in another order, that order's array.
	elems, err := SplitArrayReply(nil, wire)
	if err != nil || len(elems) != len(vals) {
		t.Fatalf("split: %d elements, %v", len(elems), err)
	}
	for i, e := range elems {
		if !bytes.Equal(e, EncodeBulk(vals[i])) {
			t.Errorf("elems[%d] = %q, want %q", i, e, EncodeBulk(vals[i]))
		}
	}
	if &elems[0][0] != &wire[len("*4\r\n")] {
		t.Error("elems[0] is a copy, want a sub-slice of the reply")
	}
	if more, err := SplitArrayReply(elems[:1:1], wire); err != nil || len(more) != 5 || !bytes.Equal(more[1], elems[0]) {
		t.Errorf("split appended to one element: %d elements, %v; want the element then the reply's four", len(more), err)
	}
	if joined := JoinArrayReply(nil, elems, 0); !bytes.Equal(joined, wire) {
		t.Errorf("join(split(x)) = %q, want %q", joined, wire)
	}
	elems[0], elems[3] = elems[3], elems[0]
	vals[0], vals[3] = vals[3], vals[0]
	if joined := JoinArrayReply(nil, elems, 0); !bytes.Equal(joined, EncodeArray(vals)) {
		t.Errorf("join of swapped elements = %q, want %q", joined, EncodeArray(vals))
	}

	if elems, err := SplitArrayReply(nil, EncodeArray(nil)); err != nil || len(elems) != 0 {
		t.Errorf("empty array: %d elements, %v", len(elems), err)
	}
	if joined := JoinArrayReply(nil, nil, 0); string(joined) != "*0\r\n" {
		t.Errorf("join of nothing = %q", joined)
	}
}

// TestArrayReplyErrors: SplitArrayReply answers bad input as the
// DecodeArrayReply it replaced did.
func TestArrayReplyErrors(t *testing.T) {
	var re ReplyError
	if _, err := SplitArrayReply(nil, EncodeError("shard timeout")); !errors.As(err, &re) || re != "ERR shard timeout" {
		t.Errorf("error reply: got %v, want its ReplyError", err)
	}
	if _, err := SplitArrayReply(nil, EncodeBulk([]byte("x"))); !errors.Is(err, ErrProtocol) {
		t.Errorf("non-array reply: got %v, want ErrProtocol", err)
	}
	if _, err := SplitArrayReply(nil, []byte("*2\r\n$1\r\na\r\n")); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated array: got %v, want unexpected EOF", err)
	}
	if _, err := SplitArrayReply(nil, nil); err != io.EOF {
		t.Errorf("nothing: got %v, want EOF", err)
	}
	huge := []byte("*999999999\r\n")
	if _, err := SplitArrayReply(nil, huge); !errors.Is(err, ErrProtocol) {
		t.Errorf("oversized header: got %v, want ErrProtocol", err)
	}
}

func TestExecuteTable(t *testing.T) {
	// Store-less commands work without a client; data commands refuse.
	if got := string(Execute(nil, []string{"PING"})); got != "+PONG\r\n" {
		t.Errorf("PING = %q", got)
	}
	if got := string(Execute(nil, []string{"ECHO", "x\r\ny"})); got != "$4\r\nx\r\ny\r\n" {
		t.Errorf("ECHO = %q", got)
	}
	if got := string(Execute(nil, []string{"GET", "k"})); !strings.Contains(got, "no store") {
		t.Errorf("GET without store = %q", got)
	}
	if got := string(Execute(nil, []string{"NOSUCH"})); !strings.Contains(got, "unknown command") {
		t.Errorf("unknown = %q", got)
	}
	if got := string(Execute(nil, nil)); !strings.Contains(got, "empty") {
		t.Errorf("empty = %q", got)
	}
}
