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
	"slices"
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
// exactly once, into memory the result owns: a command's arguments into an
// Arena, which holds a whole buffer fill's or frame's in one string and one
// slab. Decode* run the scanner over the slice they are given; Read* run the
// same scanner over the bufio.Reader's own buffer (readFrame), so nothing a
// Read* or Decode* returns ever aliases the bytes it was parsed from.
// (SplitArrayReply is the exception by design: it copies nothing and returns
// sub-slices.) Replies are appended to a buffer the caller keeps, as RunAll
// renders them, or rendered alone by the Encode* helpers.

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

// Arena is what the commands of one buffer fill or one frame are cut from:
// one string holding their arguments' bytes back to back, and one slab of
// argument slices, each replaced — never grown — by one sized for what is
// left when a command does not fit. The string is only ever appended to: the
// builder never writes a byte it has handed out, even when the arena is kept
// for the next frame (Reuse), so arguments own their memory for as long as
// anyone keeps them. The zero value is ready to use.
type Arena struct {
	all  strings.Builder
	slab []string
	cut  int // arguments DecodeNextCommand cut since Reuse
}

// command cuts the command a scanner accepted out of the arena. rest is how
// many bytes of the fill or frame follow it; what the arena starts when it
// runs out has room for them too, taken to be commands like this one, so a
// fill of one kind of command is one string and one slab of just its size.
func (a *Arena) command(s *scanner, frame []byte, rest int) []string {
	if s.bulks == 0 {
		return []string{} // "*0\r\n": a command, with no arguments
	}
	a.room(s.payload, (rest*s.payload+len(frame)-1)/len(frame))
	n := len(a.slab)
	if cap(a.slab)-n < s.bulks {
		ahead := min((rest+len(frame)-1)/len(frame), maxSlabAhead)
		a.slab, n = make([]string, 0, s.bulks*(1+ahead)), 0
	}
	args := a.slab[n : n+s.bulks : n+s.bulks]
	a.slab = a.slab[:n+s.bulks]
	pos := bytes.IndexByte(frame, '\n') + 1
	for i := range args {
		body, _, next := bulk(frame, pos)
		start := a.all.Len()
		a.all.Write(body)
		args[i] = a.all.String()[start:]
		pos = next
	}
	return args
}

// Reuse readies a kept arena for a frame of size bytes, the caller promising
// that nothing keeps the argument slices cut before: the slab is rewritten,
// re-made first if the last frame outran it. The string is appended to while
// the frame fits, else left to whoever keeps an argument cut from it.
func (a *Arena) Reuse(size int) {
	if a.slab = a.slab[:0]; cap(a.slab) < a.cut {
		a.slab = make([]string, 0, a.cut)
	}
	a.cut = 0
	a.room(size, max(reuseMin-size, 0))
}

// reuseMin is the least a kept arena's new string makes room for.
const reuseMin = 16 << 10

// Held is the string's capacity, in bytes, and the slab's, in arguments.
func (a *Arena) Held() (bytes, args int) { return a.all.Cap(), cap(a.slab) }

// maxSlabAhead bounds the commands a new slab makes room for behind the one
// that starts it: a short command must not size it for long ones behind.
const maxSlabAhead = 32

// room makes sure n more bytes fit the arena's string, starting a new one
// with more bytes to spare when they do not.
func (a *Arena) room(n, more int) {
	if a.all.Cap()-a.all.Len() < n {
		a.all = strings.Builder{}
		a.all.Grow(n + more)
	}
}

// TenantKey is TenantKey(id, key) cut from the arena: tenant admission
// rewriting a key of the fill into its caller's view.
func (a *Arena) TenantKey(id, key string) string {
	a.room(len(tenantPrefix)+len(id)+1+len(key), tenantKeySpare)
	start := a.all.Len()
	a.all.WriteString(tenantPrefix)
	a.all.WriteString(id)
	a.all.WriteByte(':')
	a.all.WriteString(key)
	return a.all.String()[start:]
}

// tenantKeySpare is the room a tenant key that finds the arena full starts
// a new string with, for the keys behind it.
const tenantKeySpare = 256

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
// The arguments are cut from an arena of their own; they never alias br's
// buffer, so the caller may keep them for as long as it likes.
func ReadCommand(br *bufio.Reader) ([]string, error) {
	var a Arena
	return a.read(br, false)
}

// ReadCommand is ReadCommand cutting the arguments from a: the first command
// of a buffer fill, which a makes room for along with everything behind it
// that the fill holds.
func (a *Arena) ReadCommand(br *bufio.Reader) ([]string, error) { return a.read(br, true) }

func (a *Arena) read(br *bufio.Reader, fill bool) ([]string, error) {
	s := scanner{kind: commandFrame, maxLine: br.Size()}
	frame, n, err := readFrame(br, &s)
	if err != nil {
		return nil, err
	}
	rest := 0
	if fill {
		rest = br.Buffered() - n
	}
	args := a.command(&s, frame, rest)
	br.Discard(n)
	return args, nil
}

// ReadBufferedCommand is ReadCommand for a reader that must not wait: it
// takes the next command only if br already holds all of it and never reads
// from br's source. It reports false when br holds nothing, the head of a
// command whose rest is still on the wire, or bytes that are no command at
// all (the ReadCommand that follows says what is wrong with them).
func (a *Arena) ReadBufferedCommand(br *bufio.Reader) ([]string, bool) {
	w, _ := br.Peek(br.Buffered())
	s := scanner{kind: commandFrame, maxLine: br.Size()}
	if done, err := s.scan(w); err != nil || !done {
		return nil, false
	}
	args := a.command(&s, w[:s.pos], len(w)-s.pos)
	br.Discard(s.pos)
	return args, true
}

// DecodeCommand parses the RESP command array at the start of a byte slice.
// The arguments own their memory: data may be reused as soon as DecodeCommand
// returns.
func DecodeCommand(data []byte) ([]string, error) {
	var a Arena
	args, _, err := a.DecodeNextCommand(data)
	return args, err
}

// DecodeNextCommand is DecodeCommand for a frame that carries commands back
// to back — a shard node's view of a run a router sent it — cutting every
// command's arguments from a: it also returns what follows the one it parsed.
func (a *Arena) DecodeNextCommand(data []byte) (args []string, rest []byte, err error) {
	s := scanner{kind: commandFrame, maxLine: math.MaxInt}
	if err := s.scanAll(data); err != nil {
		return nil, nil, err
	}
	args = a.command(&s, data[:s.pos], len(data)-s.pos)
	a.cut += len(args)
	return args, data[s.pos:], nil
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

// replyLine renders one "+", "-" or ":" reply line from parts.
func replyLine(typ byte, parts ...string) []byte {
	size := 3
	for _, p := range parts {
		size += len(p)
	}
	return appendLine(make([]byte, 0, size), typ, parts...)
}

// appendLine appends one "+", "-" or ":" reply line made of parts to dst.
// Such a line ends at its first CRLF, so a CR or LF inside a part — a command
// name or a key echoed back in a refusal — goes out as a space, as Redis does
// it: the peer could otherwise put a second reply of its own on the wire.
func appendLine(dst []byte, typ byte, parts ...string) []byte {
	start := len(dst)
	dst = append(dst, typ)
	for _, p := range parts {
		dst = append(dst, p...)
	}
	for i, c := range dst[start:] {
		if c == '\r' || c == '\n' {
			dst[start+i] = ' '
		}
	}
	return append(dst, '\r', '\n')
}

// EncodeSimple renders "+OK"-style replies.
func EncodeSimple(s string) []byte { return replyLine('+', s) }

// EncodeError renders an error reply.
func EncodeError(s string) []byte { return replyLine('-', "ERR ", s) }

// appendError appends an error reply to dst.
func appendError(dst []byte, s string) []byte { return appendLine(dst, '-', "ERR ", s) }

// EncodeInt renders an integer reply (":1"-style, as Redis DEL returns).
func EncodeInt(n int64) []byte { return appendInt(make([]byte, 0, 1+20+2), n) }

// appendInt appends an integer reply to dst.
func appendInt(dst []byte, n int64) []byte {
	dst = append(dst, ':')
	dst = strconv.AppendInt(dst, n, 10)
	return append(dst, '\r', '\n')
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
// cluster router's view of one node's answer to its part of an MGET — into
// its elements and appends them to dst, each the still-encoded bulk string
// ("$3\r\nabc\r\n", or "$-1\r\n" for a miss) as a sub-slice of data: the frame
// is validated as every other is, and no value is copied. An error reply comes
// back as its ReplyError, malformed and truncated input as ReadArrayReply
// reports them; dst is returned unchanged then.
func SplitArrayReply(dst [][]byte, data []byte) ([][]byte, error) {
	s := scanner{kind: arrayReplyFrame, maxLine: math.MaxInt}
	if err := s.scanAll(data); err != nil {
		return dst, err
	}
	if s.head == '-' {
		return dst, ReplyError(data[1 : s.pos-2])
	}
	pos := bytes.IndexByte(data, '\n') + 1
	for range s.bulks {
		_, _, next := bulk(data, pos)
		dst = append(dst, data[pos:next:next])
		pos = next
	}
	return dst, nil
}

// JoinArrayReply appends to dst an array reply of elements already encoded as
// bulk strings — SplitArrayReply's, in whatever order the caller put them. more
// is how many bytes the caller will append behind it: a dst that has to grow
// makes room for them too, within 64 KiB.
func JoinArrayReply(dst []byte, elems [][]byte, more int) []byte {
	size := lenSize(len(elems))
	for _, e := range elems {
		size += len(e)
	}
	if cap(dst)-len(dst) < size {
		dst = slices.Grow(dst, size+min(more, 64<<10))
	}
	dst = appendLen(dst, '*', len(elems))
	for _, e := range elems {
		dst = append(dst, e...)
	}
	return dst
}
