package redis

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"reflect"
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

func TestReadCommandLyingLengthNoHugeAlloc(t *testing.T) {
	// A header claiming MaxBulkLen with no body must fail from truncation,
	// not attempt a 64 MiB allocation first (the body buffer grows with
	// the bytes actually received).
	in := "*1\r\n$67108864\r\nx"
	_, err := ReadCommand(bufio.NewReader(strings.NewReader(in)))
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("got %v, want io.ErrUnexpectedEOF", err)
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
	got, nils, err := DecodeArrayReply(EncodeArray(vals))
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

	if _, _, err := DecodeArrayReply(EncodeArray(nil)); err != nil {
		t.Errorf("empty array: %v", err)
	}
}

func TestArrayReplyErrors(t *testing.T) {
	var re ReplyError
	if _, _, err := DecodeArrayReply(EncodeError("shard timeout")); !errors.As(err, &re) {
		t.Errorf("error reply: got %v, want ReplyError", err)
	}
	if _, _, err := DecodeArrayReply(EncodeBulk([]byte("x"))); !errors.Is(err, ErrProtocol) {
		t.Errorf("non-array reply: got %v, want ErrProtocol", err)
	}
	if _, _, err := DecodeArrayReply([]byte("*2\r\n$1\r\na\r\n")); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated array: got %v, want unexpected EOF", err)
	}
	huge := []byte("*999999999\r\n")
	if _, _, err := DecodeArrayReply(huge); !errors.Is(err, ErrProtocol) {
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
