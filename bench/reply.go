package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// replyReader parses RESP replies in place out of one reused buffer, so the
// generator allocates nothing per command. stamp is when the most recent
// read from src returned: the arrival time of every reply completed by the
// bytes now buffered.
type replyReader struct {
	src   io.Reader
	buf   []byte
	r, w  int
	stamp time.Time
}

func newReplyReader(src io.Reader) *replyReader {
	return &replyReader{src: src, buf: make([]byte, 64<<10)}
}

var errReplyTooLong = errors.New("bench: reply element exceeds the read buffer")

// fill reads more bytes, compacting first when the tail is full.
func (rr *replyReader) fill() error {
	if rr.w == len(rr.buf) {
		if rr.r == 0 {
			return errReplyTooLong
		}
		rr.w = copy(rr.buf, rr.buf[rr.r:rr.w])
		rr.r = 0
	}
	n, err := rr.src.Read(rr.buf[rr.w:])
	rr.stamp = time.Now()
	rr.w += n
	if n > 0 {
		return nil
	}
	if err == nil {
		err = io.ErrNoProgress
	}
	return err
}

// line returns the next CRLF-terminated line without its terminator. The
// slice is valid until the next call.
func (rr *replyReader) line() ([]byte, error) {
	scanned := 0 // relative to rr.r, so it survives fill's compaction
	for {
		if i := bytes.IndexByte(rr.buf[rr.r+scanned:rr.w], '\n'); i >= 0 {
			end := rr.r + scanned + i
			line := rr.buf[rr.r:end]
			rr.r = end + 1
			if len(line) == 0 || line[len(line)-1] != '\r' {
				return nil, fmt.Errorf("bench: reply line without CRLF: %q", line)
			}
			return line[:len(line)-1], nil
		}
		scanned = rr.w - rr.r
		if err := rr.fill(); err != nil {
			return nil, err
		}
	}
}

// payload returns the next n bytes plus their CRLF, without the CRLF.
func (rr *replyReader) payload(n int) ([]byte, error) {
	for rr.w-rr.r < n+2 {
		if err := rr.fill(); err != nil {
			return nil, err
		}
	}
	p := rr.buf[rr.r : rr.r+n]
	if rr.buf[rr.r+n] != '\r' || rr.buf[rr.r+n+1] != '\n' {
		return nil, errors.New("bench: bulk payload without CRLF")
	}
	rr.r += n + 2
	return p, nil
}

// verdict classifies one verified reply.
type verdict uint8

const (
	replyOK       verdict = iota
	replyRefused          // a typed refusal or error line: -BUSY, -STALE, -DEADLINE, -QUOTA, -ERR ...
	replyMismatch         // well-formed but wrong: nil, wrong value, wrong count
)

// firstErrorReply prints the process's first error reply, so that a run that
// ends with failed > 0 says on standard error what the program refused.
var firstErrorReply sync.Once

func parseLen(b []byte) (int, bool) {
	if len(b) == 0 {
		return 0, false
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
		if n > 1<<30 {
			return 0, false
		}
	}
	return n, true
}

// bulk consumes one bulk string and checks it against key's value.
func (rr *replyReader) bulk(s *stream, key uint16, head []byte) (verdict, error) {
	if len(head) == 0 || head[0] != '$' {
		return replyMismatch, fmt.Errorf("bench: want bulk reply, got %q", head)
	}
	if bytes.Equal(head, []byte("$-1")) {
		return replyMismatch, nil
	}
	n, ok := parseLen(head[1:])
	if !ok {
		return replyMismatch, fmt.Errorf("bench: bad bulk length %q", head)
	}
	p, err := rr.payload(n)
	if err != nil {
		return replyMismatch, err
	}
	if !valueMatches(p, s.words[key], s.w.valueSize) {
		return replyMismatch, nil
	}
	return replyOK, nil
}

// verify consumes the reply to o and checks it: the key's value on every
// GET and every MGET element, +OK on SET. A non-nil error means the byte
// stream itself is broken (transport failure or malformed RESP) and the
// connection cannot continue.
func (rr *replyReader) verify(s *stream, o op) (verdict, error) {
	head, err := rr.line()
	if err != nil {
		return replyMismatch, err
	}
	if len(head) > 0 && head[0] == '-' {
		firstErrorReply.Do(func() { fmt.Fprintf(os.Stderr, "bench: first error reply: %s\n", head) })
		return replyRefused, nil
	}
	switch o.kind {
	case opSet:
		if !bytes.Equal(head, []byte("+OK")) {
			return replyMismatch, fmt.Errorf("bench: SET answered %q", head)
		}
		return replyOK, nil
	case opGet:
		return rr.bulk(s, o.keys[0], head)
	}
	if len(head) == 0 || head[0] != '*' {
		return replyMismatch, fmt.Errorf("bench: MGET answered %q", head)
	}
	n, ok := parseLen(head[1:])
	if !ok {
		return replyMismatch, fmt.Errorf("bench: bad array length %q", head)
	}
	out := replyOK
	for i := 0; i < n; i++ {
		eh, err := rr.line()
		if err != nil {
			return replyMismatch, err
		}
		key := uint16(0)
		if i < mgetKeys {
			key = o.keys[i]
		}
		v, err := rr.bulk(s, key, eh)
		if err != nil {
			return replyMismatch, err
		}
		if v != replyOK {
			out = v
		}
	}
	if n != mgetKeys {
		out = replyMismatch
	}
	return out, nil
}

// verifyBytes checks a complete reply held in memory (the router rung gets
// its replies as byte slices, not off a socket).
func verifyBytes(s *stream, o op, resp []byte) verdict {
	rr := replyReader{src: eofReader{}, buf: resp, w: len(resp)}
	v, err := rr.verify(s, o)
	if err != nil || rr.r != rr.w {
		return replyMismatch
	}
	return v
}

type eofReader struct{}

func (eofReader) Read([]byte) (int, error) { return 0, io.EOF }
