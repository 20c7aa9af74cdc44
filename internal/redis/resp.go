// Package redis reproduces the paper's Redis experiment (§5.3, Figure 10):
// a baseline single-threaded key-value server reached over a socket, versus
// RedisJMP — a client-side library in which clients switch into a shared
// server VAS and execute the operations directly against a lockable
// segment, eliding the server process entirely.
package redis

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// RESP is the Redis serialization protocol (the subset redis-benchmark
// exercises: inline arrays of bulk strings for commands; simple strings,
// integers, bulk strings and errors for replies). Bulk strings are
// length-prefixed, so keys and values may contain arbitrary bytes —
// including CR and LF — and the parser below is length-driven rather than
// line-split so it stays correct on binary payloads and on fragmented
// reads from a real TCP stream.
//
// There is one parser. A scanner validates a frame in place, hopping from
// header to header; once it has accepted the frame, the payload is copied
// exactly once, into memory the result owns. Decode* run the scanner over
// the slice they are given; Read* run the same scanner over the
// bufio.Reader's own buffer (readFrame), so nothing a Read* or Decode*
// returns ever aliases the bytes it was parsed from. (SplitArrayReply is the
// exception by design: it copies nothing and returns sub-slices.)

// Protocol hardening limits: a malicious or corrupt header must not make
// the reader allocate unboundedly before any payload byte has arrived.
const (
	// MaxArgs bounds the element count of one command array.
	MaxArgs = 1 << 16
	// MaxBulkLen bounds one bulk string (64 MiB, well above any modeled
	// workload but far below anything that could wedge the host).
	MaxBulkLen = 64 << 20
	// maxLenHeader bounds a "*<n>" or "$<n>" header line, CRLF included:
	// the type byte and at most 20 length characters. A peer that sends
	// more without ending the line is refused, not buffered.
	maxLenHeader = 1 + 20 + 2
)

// ErrProtocol reports malformed RESP input.
var ErrProtocol = errors.New("redis: protocol error")

// ReplyError is an error reply ("-ERR ...") decoded from a server. It is
// distinct from transport and protocol errors so clients can tell "the
// server refused this command" from "the connection is broken".
type ReplyError string

func (e ReplyError) Error() string { return string(e) }

// frameKind says which frames a scanner accepts.
type frameKind uint8

const (
	commandFrame    frameKind = iota // "*<n>", then n bulk strings
	replyFrame                       // one "+", "-" or ":" line, or one bulk string (null allowed)
	arrayReplyFrame                  // a "-" line, or "*<n>" then n bulk strings (nulls allowed)
)

// scanner validates one RESP frame in place. scan may be called again with
// a longer prefix of the same frame and carries on from the last header it
// accepted, so feeding a frame in pieces costs no more than feeding it
// whole; it copies and allocates nothing.
type scanner struct {
	kind frameKind
	// maxLine bounds a "+", "-" or ":" line, CRLF included: the source's
	// buffer size for a stream, unbounded for a slice already in memory.
	maxLine int

	pos     int  // offset of the first header not yet accepted
	head    byte // type byte of the frame's first header; 0 until accepted
	bulks   int  // bulk strings in the frame, nulls included
	left    int  // of those, the ones at or after pos
	payload int  // bytes in the non-null bulk bodies before pos
	// When scan reports an incomplete frame, need is the shortest prefix
	// that lets it get further — to the next header or to an error, so a
	// source that blocks for that much never waits for bytes a malformed
	// frame will not send — and inLine says it stopped inside a header
	// line, which ends with the first LF yet to come. Neither reaches past
	// the frame's end, so a stream may be read that far without touching
	// the frame behind it.
	need   int
	inLine bool
}

// scan validates the frame that b is a prefix of. It reports true once b
// holds the whole frame, which is then b[:s.pos].
func (s *scanner) scan(b []byte) (bool, error) {
	for s.head == 0 || s.left > 0 {
		rest := b[s.pos:]
		limit := maxLenHeader
		if s.head == 0 && s.kind != commandFrame && len(rest) > 0 &&
			(rest[0] == '+' || rest[0] == '-' || rest[0] == ':') {
			limit = s.maxLine
		}
		if len(rest) > limit {
			rest = rest[:limit]
		}
		eol := bytes.IndexByte(rest, '\n')
		if eol < 0 {
			if len(rest) == limit {
				return false, fmt.Errorf("%w: header line longer than %d bytes", ErrProtocol, limit)
			}
			s.need, s.inLine = len(b)+1, true
			return false, nil
		}
		if eol == 0 || rest[eol-1] != '\r' {
			return false, fmt.Errorf("%w: header %q not CRLF-terminated", ErrProtocol, rest[:eol])
		}
		line, next := rest[:eol-1], s.pos+eol+1
		if len(line) == 0 {
			return false, fmt.Errorf("%w: empty header line", ErrProtocol)
		}

		if s.head == 0 {
			switch {
			case line[0] == '*' && s.kind != replyFrame:
				n, ok := parseLen(line[1:], MaxArgs)
				if !ok {
					return false, fmt.Errorf("%w: bad array header %q", ErrProtocol, line)
				}
				if n > MaxArgs {
					return false, fmt.Errorf("%w: array %q exceeds %d elements", ErrProtocol, line, MaxArgs)
				}
				s.bulks, s.left = n, n
			case line[0] == '$' && s.kind == replyFrame:
				// The frame is this one bulk string: take its header
				// again, as an element.
				s.bulks, s.left, next = 1, 1, s.pos
			case line[0] == '-' && s.kind != commandFrame,
				(line[0] == '+' || line[0] == ':') && s.kind == replyFrame:
				// A line reply is the whole frame.
			default:
				return false, fmt.Errorf("%w: unexpected %q", ErrProtocol, line)
			}
			s.head, s.pos = line[0], next
			continue
		}

		if line[0] != '$' {
			return false, fmt.Errorf("%w: expected bulk string, got %q", ErrProtocol, line)
		}
		if s.kind != commandFrame && string(line) == "$-1" {
			s.pos = next
			s.left--
			continue
		}
		n, ok := parseLen(line[1:], MaxBulkLen)
		if !ok {
			return false, fmt.Errorf("%w: bad bulk length %q", ErrProtocol, line)
		}
		if n > MaxBulkLen {
			return false, fmt.Errorf("%w: bulk length %q exceeds %d", ErrProtocol, line, MaxBulkLen)
		}
		end := next + n + 2
		if len(b) < end {
			s.need, s.inLine = end, false
			return false, nil
		}
		if b[end-2] != '\r' || b[end-1] != '\n' {
			return false, fmt.Errorf("%w: bulk of %d bytes not CRLF-terminated", ErrProtocol, n)
		}
		s.payload += n
		s.pos = end
		s.left--
	}
	return true, nil
}

// parseLen parses a length: ASCII digits only, no sign (real Redis refuses
// "$+3" and "$-0" too). A value above limit comes back as some value above
// limit, not necessarily the one written.
func parseLen(digits []byte, limit int) (n int, ok bool) {
	if len(digits) == 0 {
		return 0, false
	}
	for _, d := range digits {
		if d < '0' || d > '9' {
			return 0, false
		}
		if n <= limit {
			n = n*10 + int(d-'0')
		}
	}
	return n, true
}

// scanAll scans a frame that must be whole in data.
func (s *scanner) scanAll(data []byte) error {
	done, err := s.scan(data)
	switch {
	case err != nil:
		return err
	case done:
		return nil
	case len(data) == 0:
		return io.EOF
	}
	return io.ErrUnexpectedEOF
}

// readFrame feeds s from br until it has accepted one whole frame and
// returns the frame's bytes. A frame that fits br's buffer is returned in
// place — valid until the caller, having copied what it keeps, calls
// br.Discard(n). One that does not fit is gathered in a slice that grows
// with the bytes actually received, so a lying length cannot force an
// allocation up front; those bytes are already consumed and n is 0.
//
// A clean end-of-stream before the first byte is io.EOF; truncation inside
// a frame is io.ErrUnexpectedEOF. After an error br's position is
// unspecified: the stream cannot be resynchronized.
func readFrame(br *bufio.Reader, s *scanner) (frame []byte, n int, err error) {
	var own []byte   // the frame so far, once it has outgrown br's buffer
	var srcErr error // br ran dry; reported once what it did deliver is scanned
	for {
		w, _ := br.Peek(br.Buffered())
		if own != nil {
			take := s.need - len(own)
			if s.inLine {
				// The rest of the line: through the first LF, or all there is.
				if take = bytes.IndexByte(w, '\n') + 1; take == 0 {
					take = len(w)
				}
			}
			take = min(take, len(w))
			own = append(own, w[:take]...)
			br.Discard(take)
			w = own
		}
		done, err := s.scan(w)
		if err != nil {
			return nil, 0, err
		}
		if done {
			if own != nil {
				return own, 0, nil
			}
			return w[:s.pos], s.pos, nil
		}
		if srcErr != nil {
			return nil, 0, srcErr
		}
		want := s.need
		if own == nil && want > br.Size() {
			own = append(make([]byte, 0, 2*len(w)), w...)
			br.Discard(len(w))
		}
		if own != nil {
			want = min(want-len(own), br.Size())
		}
		if _, srcErr = br.Peek(want); srcErr == io.EOF && (len(w) > 0 || br.Buffered() > 0) {
			srcErr = io.ErrUnexpectedEOF
		}
	}
}

// bulk returns the body of the bulk string whose header starts at
// frame[pos:] (null for "$-1") and the offset of the header after it. The
// frame has been accepted by a scanner, so nothing is checked again.
func bulk(frame []byte, pos int) (body []byte, null bool, next int) {
	i := pos + 1
	if frame[i] == '-' {
		return nil, true, pos + 5
	}
	n := 0
	for ; frame[i] != '\r'; i++ {
		n = n*10 + int(frame[i]-'0')
	}
	i += 2
	return frame[i : i+n], false, i + n + 2
}

// command builds the parsed command from a frame s accepted: one string
// holding every argument's bytes back to back, and the argument slice
// cutting it up — two allocations, one copy.
func (s *scanner) command(frame []byte) []string {
	args := make([]string, s.bulks)
	var all strings.Builder
	all.Grow(s.payload)
	pos := bytes.IndexByte(frame, '\n') + 1
	for i := range args {
		body, _, next := bulk(frame, pos)
		start := all.Len()
		all.Write(body)
		args[i] = all.String()[start:]
		pos = next
	}
	return args
}

// reply builds the (value, isNil, error) of a reply frame s accepted.
func (s *scanner) reply(frame []byte) ([]byte, bool, error) {
	if s.head != '$' {
		line := frame[1 : len(frame)-2]
		if s.head == '-' {
			return nil, false, ReplyError(line)
		}
		return append(make([]byte, 0, len(line)), line...), false, nil
	}
	body, null, _ := bulk(frame, 0)
	if null {
		return nil, true, nil
	}
	return append(make([]byte, 0, len(body)), body...), false, nil
}

// arrayReply builds the values and nil flags of an array reply frame s
// accepted. The values share one backing array, each capped at its own
// length so appending to one cannot reach the next.
func (s *scanner) arrayReply(frame []byte) ([][]byte, []bool, error) {
	if s.head == '-' {
		return nil, nil, ReplyError(frame[1 : len(frame)-2])
	}
	vals := make([][]byte, s.bulks)
	nils := make([]bool, s.bulks)
	all := make([]byte, 0, s.payload)
	pos := bytes.IndexByte(frame, '\n') + 1
	for i := range vals {
		body, null, next := bulk(frame, pos)
		if nils[i] = null; !null {
			start := len(all)
			all = append(all, body...)
			vals[i] = all[start:len(all):len(all)]
		}
		pos = next
	}
	return vals, nils, nil
}

// ReadCommand reads exactly one RESP command array from a stream. It is
// length-driven: bulk strings may contain arbitrary bytes (embedded CRLF
// included), and partial reads simply block in the reader rather than
// misparse. A clean end-of-stream before the first byte returns io.EOF;
// truncation inside a command returns io.ErrUnexpectedEOF.
//
// The arguments are substrings of one string the command owns; they never
// alias br's buffer, so the caller may keep them for as long as it likes.
func ReadCommand(br *bufio.Reader) ([]string, error) {
	s := scanner{kind: commandFrame, maxLine: br.Size()}
	frame, n, err := readFrame(br, &s)
	if err != nil {
		return nil, err
	}
	args := s.command(frame)
	br.Discard(n)
	return args, nil
}

// ReadBufferedCommand is ReadCommand for a reader that must not wait: it
// takes the next command only if br already holds all of it and never reads
// from br's source. It reports false when br holds nothing, the head of a
// command whose rest is still on the wire, or bytes that are no command at
// all (the ReadCommand that follows says what is wrong with them).
func ReadBufferedCommand(br *bufio.Reader) ([]string, bool) {
	w, _ := br.Peek(br.Buffered())
	s := scanner{kind: commandFrame, maxLine: br.Size()}
	if done, err := s.scan(w); err != nil || !done {
		return nil, false
	}
	args := s.command(w[:s.pos])
	br.Discard(s.pos)
	return args, true
}

// DecodeCommand parses the RESP command array at the start of a byte slice
// — a shard node's view of the frame a router sent it. The arguments own
// their memory: data may be reused as soon as DecodeCommand returns.
func DecodeCommand(data []byte) ([]string, error) {
	args, _, err := DecodeNextCommand(data)
	return args, err
}

// DecodeNextCommand is DecodeCommand for a frame that carries commands back
// to back: it also returns what follows the one it parsed.
func DecodeNextCommand(data []byte) (args []string, rest []byte, err error) {
	s := scanner{kind: commandFrame, maxLine: math.MaxInt}
	if err := s.scanAll(data); err != nil {
		return nil, nil, err
	}
	return s.command(data[:s.pos]), data[s.pos:], nil
}

// NextReply cuts the first reply — a line, a bulk string, an array of bulk
// strings — off a byte slice that holds replies back to back, as a node
// answers a run of commands. The reply is a sub-slice of data, validated as
// every frame is and not copied.
func NextReply(data []byte) (reply, rest []byte, err error) {
	s := scanner{kind: replyFrame, maxLine: math.MaxInt}
	if len(data) > 0 && data[0] == '*' {
		s.kind = arrayReplyFrame
	}
	if err := s.scanAll(data); err != nil {
		return nil, nil, err
	}
	return data[:s.pos:s.pos], data[s.pos:], nil
}

// AppendCommand appends a command, rendered as a RESP array of bulk
// strings, to dst. A caller that keeps dst across commands encodes without
// allocating.
func AppendCommand(dst []byte, args ...string) []byte {
	dst = appendLen(dst, '*', len(args))
	for _, a := range args {
		dst = appendBulk(dst, a)
	}
	return dst
}

// EncodeCommand renders a command as a RESP array of bulk strings.
func EncodeCommand(args ...string) []byte {
	return AppendCommand(make([]byte, 0, CommandSize(args)), args...)
}

// CommandSize is the encoded size of a command: what AppendCommand appends.
func CommandSize(args []string) int {
	size := lenSize(len(args))
	for _, a := range args {
		size += bulkSize(len(a))
	}
	return size
}

// appendLen appends a "*<n>" or "$<n>" header line.
func appendLen(dst []byte, typ byte, n int) []byte {
	dst = append(dst, typ)
	dst = strconv.AppendInt(dst, int64(n), 10)
	return append(dst, '\r', '\n')
}

func appendBulk[T string | []byte](dst []byte, v T) []byte {
	dst = appendLen(dst, '$', len(v))
	dst = append(dst, v...)
	return append(dst, '\r', '\n')
}

// lenSize is the encoded size of a "*<n>" or "$<n>" header line.
func lenSize(n int) int {
	size := 4 // type byte, one digit, CRLF
	for ; n >= 10; n /= 10 {
		size++
	}
	return size
}

// bulkSize is the encoded size of a bulk string of n bytes.
func bulkSize(n int) int { return lenSize(n) + n + 2 }

// Replies.

// replyLine renders one "+", "-" or ":" reply line from parts. Such a line
// ends at its first CRLF, so a CR or LF inside a part — a command name or a
// key echoed back in a refusal — goes out as a space, as Redis does it: the
// peer could otherwise put a second reply of its own on the wire.
func replyLine(typ byte, parts ...string) []byte {
	size := 3
	for _, p := range parts {
		size += len(p)
	}
	b := append(make([]byte, 0, size), typ)
	for _, p := range parts {
		b = append(b, p...)
	}
	for i, c := range b {
		if c == '\r' || c == '\n' {
			b[i] = ' '
		}
	}
	return append(b, '\r', '\n')
}

// EncodeSimple renders "+OK"-style replies.
func EncodeSimple(s string) []byte { return replyLine('+', s) }

// EncodeError renders an error reply.
func EncodeError(s string) []byte { return replyLine('-', "ERR ", s) }

// EncodeInt renders an integer reply (":1"-style, as Redis DEL returns).
func EncodeInt(n int64) []byte {
	b := append(make([]byte, 0, 1+20+2), ':')
	b = strconv.AppendInt(b, n, 10)
	return append(b, '\r', '\n')
}

// EncodeBulk renders a bulk string reply; nil renders the null bulk.
func EncodeBulk(v []byte) []byte {
	if v == nil {
		return []byte("$-1\r\n")
	}
	return appendBulk(make([]byte, 0, bulkSize(len(v))), v)
}

// EncodeArray renders an array reply of bulk strings (as MGET returns);
// nil elements render as null bulks.
func EncodeArray(vals [][]byte) []byte {
	size := lenSize(len(vals))
	for _, v := range vals {
		if v == nil {
			size += len("$-1\r\n")
		} else {
			size += bulkSize(len(v))
		}
	}
	b := appendLen(make([]byte, 0, size), '*', len(vals))
	for _, v := range vals {
		if v == nil {
			b = append(b, "$-1\r\n"...)
		} else {
			b = appendBulk(b, v)
		}
	}
	return b
}

// EncodeUnknownCommand renders the canonical unknown-command error reply.
func EncodeUnknownCommand(name string) []byte {
	return replyLine('-', "ERR unknown command '", name, "'")
}

// EncodeWrongArity renders the canonical arity-mismatch error reply.
func EncodeWrongArity(name string) []byte {
	return replyLine('-', "ERR wrong number of arguments for '", strings.ToLower(name), "' command")
}

// ReadReply reads exactly one reply from a stream, returning (value, isNil,
// error). Error replies come back as ReplyError; the value of an integer
// reply is its decimal text. The value is the caller's own.
func ReadReply(br *bufio.Reader) ([]byte, bool, error) {
	s := scanner{kind: replyFrame, maxLine: br.Size()}
	frame, n, err := readFrame(br, &s)
	if err != nil {
		return nil, false, err
	}
	v, isNil, err := s.reply(frame)
	br.Discard(n)
	return v, isNil, err
}

// DecodeReply parses the reply at the start of a byte slice, returning
// (value, isNil, error) as ReadReply does.
func DecodeReply(data []byte) ([]byte, bool, error) {
	s := scanner{kind: replyFrame, maxLine: math.MaxInt}
	if err := s.scanAll(data); err != nil {
		return nil, false, err
	}
	return s.reply(data[:s.pos])
}

// ReadArrayReply reads exactly one array reply (as MGET returns): element
// values and per-element nil flags. Error replies come back as ReplyError,
// exactly as in ReadReply, so a caller expecting an array still sees the
// server's refusal.
func ReadArrayReply(br *bufio.Reader) ([][]byte, []bool, error) {
	s := scanner{kind: arrayReplyFrame, maxLine: br.Size()}
	frame, n, err := readFrame(br, &s)
	if err != nil {
		return nil, nil, err
	}
	vals, nils, err := s.arrayReply(frame)
	br.Discard(n)
	return vals, nils, err
}

// SplitArrayReply cuts the array reply at the start of a byte slice — the
// cluster router's view of one node's answer to its group of an MGET — into
// its elements, each the still-encoded bulk string ("$3\r\nabc\r\n", or
// "$-1\r\n" for a miss) as a sub-slice of data: the frame is validated as
// every other is, and no value is copied. An error reply comes back as its
// ReplyError, malformed and truncated input as ReadArrayReply reports them.
func SplitArrayReply(data []byte) ([][]byte, error) {
	s := scanner{kind: arrayReplyFrame, maxLine: math.MaxInt}
	if err := s.scanAll(data); err != nil {
		return nil, err
	}
	if s.head == '-' {
		return nil, ReplyError(data[1 : s.pos-2])
	}
	elems := make([][]byte, s.bulks)
	pos := bytes.IndexByte(data, '\n') + 1
	for i := range elems {
		_, _, next := bulk(data, pos)
		elems[i] = data[pos:next:next]
		pos = next
	}
	return elems, nil
}

// JoinArrayReply renders an array reply from elements already encoded as
// bulk strings — SplitArrayReply's, in whatever order the caller put them.
func JoinArrayReply(elems [][]byte) []byte {
	size := lenSize(len(elems))
	for _, e := range elems {
		size += len(e)
	}
	b := appendLen(make([]byte, 0, size), '*', len(elems))
	for _, e := range elems {
		b = append(b, e...)
	}
	return b
}
