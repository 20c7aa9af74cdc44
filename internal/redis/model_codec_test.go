package redis_test

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"spacejmp/internal/redis"
)

// The reference model of the RESP codec: the stream reader and the
// fmt-based encoders as they stood before the in-place parser replaced
// them, kept verbatim except for the notes the reader takes (ref.quirk) so
// the comparison can tell a bug it fixed from a bug it introduced. The
// differential tests and FuzzReadCommand hold the parser in resp.go to this
// model on everything but the two places they differ on purpose:
//
//   - Lengths. The model parses them with strconv.Atoi, which takes "$+3",
//     "*+1" and "$-0"; the parser takes ASCII digits only, as Redis does.
//   - Header lines. The model reads a line with ReadString, however long;
//     the parser gives a "*<n>"/"$<n>" line 23 bytes and a "+"/"-"/":"
//     line the reader's buffer size, and refuses a longer one instead of
//     buffering it.
//
// On such input the model's answer is whatever it is and the parser's must
// be ErrProtocol.

const refMaxLenHeader = 1 + 20 + 2

type ref struct {
	// lineLimit is what the parser under comparison gives a "+", "-" or
	// ":" line: the bufio size when it reads a stream, no limit when it
	// decodes a slice.
	lineLimit int
	quirk     bool // the input ran into one of the two intended differences
}

func (r *ref) readLine(br *bufio.Reader, first, lineOK bool) (string, error) {
	s, err := br.ReadString('\n')
	limit := refMaxLenHeader
	if first && lineOK && len(s) > 0 && strings.IndexByte("+-:", s[0]) >= 0 {
		limit = r.lineLimit
	}
	if len(s) > limit || (err != nil && len(s) == limit) {
		r.quirk = true
	}
	if err != nil {
		if err == io.EOF && (len(s) > 0 || !first) {
			return "", io.ErrUnexpectedEOF
		}
		return "", err
	}
	if len(s) < 2 || s[len(s)-2] != '\r' {
		return "", fmt.Errorf("%w: header %q not CRLF-terminated", redis.ErrProtocol, strings.TrimSuffix(s, "\n"))
	}
	return s[:len(s)-2], nil
}

// atoi is strconv.Atoi, noting a result the parser's digits-only rule
// would have refused.
func (r *ref) atoi(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err == nil && n >= 0 && (s[0] == '+' || s[0] == '-') {
		r.quirk = true
	}
	return n, err
}

func (r *ref) readBulk(br *bufio.Reader, header string) ([]byte, error) {
	n, err := r.atoi(header[1:])
	if err != nil || n < 0 {
		return nil, fmt.Errorf("%w: bad bulk length %q", redis.ErrProtocol, header)
	}
	if n > redis.MaxBulkLen {
		return nil, fmt.Errorf("%w: bulk length %d exceeds %d", redis.ErrProtocol, n, redis.MaxBulkLen)
	}
	var body bytes.Buffer
	if _, err := io.CopyN(&body, br, int64(n)+2); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	b := body.Bytes()
	if b[n] != '\r' || b[n+1] != '\n' {
		return nil, fmt.Errorf("%w: bulk of %d bytes not CRLF-terminated", redis.ErrProtocol, n)
	}
	return b[:n], nil
}

func (r *ref) readCommand(br *bufio.Reader) ([]string, error) {
	line, err := r.readLine(br, true, false)
	if err != nil {
		return nil, err
	}
	if len(line) == 0 || line[0] != '*' {
		return nil, fmt.Errorf("%w: expected command array, got %q", redis.ErrProtocol, line)
	}
	n, err := r.atoi(line[1:])
	if err != nil || n < 0 {
		return nil, fmt.Errorf("%w: bad array header %q", redis.ErrProtocol, line)
	}
	if n > redis.MaxArgs {
		return nil, fmt.Errorf("%w: array of %d elements exceeds %d", redis.ErrProtocol, n, redis.MaxArgs)
	}
	args := make([]string, 0, n)
	for i := 0; i < n; i++ {
		hdr, err := r.readLine(br, false, false)
		if err != nil {
			return nil, err
		}
		if len(hdr) == 0 || hdr[0] != '$' {
			return nil, fmt.Errorf("%w: expected bulk string, got %q", redis.ErrProtocol, hdr)
		}
		body, err := r.readBulk(br, hdr)
		if err != nil {
			return nil, err
		}
		args = append(args, string(body))
	}
	return args, nil
}

func (r *ref) readReply(br *bufio.Reader) ([]byte, bool, error) {
	line, err := r.readLine(br, true, true)
	if err != nil {
		return nil, false, err
	}
	if len(line) == 0 {
		return nil, false, fmt.Errorf("%w: empty reply line", redis.ErrProtocol)
	}
	switch line[0] {
	case '+', ':':
		return []byte(line[1:]), false, nil
	case '-':
		return nil, false, redis.ReplyError(line[1:])
	case '$':
		if line == "$-1" {
			return nil, true, nil
		}
		body, err := r.readBulk(br, line)
		if err != nil {
			return nil, false, err
		}
		return body, false, nil
	default:
		return nil, false, fmt.Errorf("%w: unknown reply %q", redis.ErrProtocol, line)
	}
}

func (r *ref) readArrayReply(br *bufio.Reader) ([][]byte, []bool, error) {
	line, err := r.readLine(br, true, true)
	if err != nil {
		return nil, nil, err
	}
	if len(line) == 0 {
		return nil, nil, fmt.Errorf("%w: empty reply line", redis.ErrProtocol)
	}
	if line[0] == '-' {
		return nil, nil, redis.ReplyError(line[1:])
	}
	if line[0] != '*' {
		return nil, nil, fmt.Errorf("%w: expected array reply, got %q", redis.ErrProtocol, line)
	}
	n, err := r.atoi(line[1:])
	if err != nil || n < 0 {
		return nil, nil, fmt.Errorf("%w: bad array header %q", redis.ErrProtocol, line)
	}
	if n > redis.MaxArgs {
		return nil, nil, fmt.Errorf("%w: array of %d elements exceeds %d", redis.ErrProtocol, n, redis.MaxArgs)
	}
	vals := make([][]byte, 0, n)
	nils := make([]bool, 0, n)
	for i := 0; i < n; i++ {
		hdr, err := r.readLine(br, false, true)
		if err != nil {
			return nil, nil, err
		}
		if len(hdr) == 0 || hdr[0] != '$' {
			return nil, nil, fmt.Errorf("%w: expected bulk string, got %q", redis.ErrProtocol, hdr)
		}
		if hdr == "$-1" {
			vals = append(vals, nil)
			nils = append(nils, true)
			continue
		}
		body, err := r.readBulk(br, hdr)
		if err != nil {
			return nil, nil, err
		}
		vals = append(vals, body)
		nils = append(nils, false)
	}
	return vals, nils, nil
}

func refEncodeCommand(args ...string) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "*%d\r\n", len(args))
	for _, a := range args {
		fmt.Fprintf(&b, "$%d\r\n%s\r\n", len(a), a)
	}
	return b.Bytes()
}

func refEncodeBulk(v []byte) []byte {
	var b bytes.Buffer
	if v == nil {
		return []byte("$-1\r\n")
	}
	fmt.Fprintf(&b, "$%d\r\n%s\r\n", len(v), v)
	return b.Bytes()
}

func refEncodeArray(vals [][]byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "*%d\r\n", len(vals))
	for _, v := range vals {
		b.Write(refEncodeBulk(v))
	}
	return b.Bytes()
}

func refEncodeSimple(s string) []byte { return []byte("+" + s + "\r\n") }
func refEncodeError(s string) []byte  { return []byte("-ERR " + s + "\r\n") }
func refEncodeInt(n int64) []byte     { return []byte(":" + strconv.FormatInt(n, 10) + "\r\n") }

// result is one parse of one frame by either side, in comparable form.
type result struct {
	val      any    // []string, replyVal or arrayVal
	class    string // "", "EOF", "UnexpectedEOF", "Protocol", "Reply:<text>", or the error's text
	consumed int    // bytes taken from the stream, on success
}

type replyVal struct {
	Val   []byte
	IsNil bool
}

type arrayVal struct {
	Vals [][]byte
	Nils []bool
}

func classOf(err error) string {
	var re redis.ReplyError
	switch {
	case err == nil:
		return ""
	case err == io.EOF:
		return "EOF"
	case err == io.ErrUnexpectedEOF:
		return "UnexpectedEOF"
	case errors.Is(err, redis.ErrProtocol):
		return "Protocol"
	case errors.As(err, &re):
		return "Reply:" + string(re)
	}
	return err.Error()
}

// norm makes nil and empty byte slices compare equal: which of the two an
// empty value comes back as is not part of the codec's contract.
func norm(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return b
}

func normAll(vals [][]byte) [][]byte {
	out := make([][]byte, len(vals))
	for i, v := range vals {
		out[i] = norm(v)
	}
	return out
}

// codecs pairs each frame kind's reference reader with the parser's stream
// and slice entry points.
var codecs = []struct {
	name   string
	ref    func(*ref, *bufio.Reader) (any, error)
	read   func(*bufio.Reader) (any, error)
	decode func([]byte) (any, error)
}{
	{"command",
		func(r *ref, br *bufio.Reader) (any, error) { a, err := r.readCommand(br); return a, err },
		func(br *bufio.Reader) (any, error) { a, err := redis.ReadCommand(br); return a, err },
		func(b []byte) (any, error) { a, err := redis.DecodeCommand(b); return a, err }},
	{"reply",
		func(r *ref, br *bufio.Reader) (any, error) {
			v, n, err := r.readReply(br)
			return replyVal{norm(v), n}, err
		},
		func(br *bufio.Reader) (any, error) {
			v, n, err := redis.ReadReply(br)
			return replyVal{norm(v), n}, err
		},
		func(b []byte) (any, error) {
			v, n, err := redis.DecodeReply(b)
			return replyVal{norm(v), n}, err
		}},
	{"array",
		func(r *ref, br *bufio.Reader) (any, error) {
			v, n, err := r.readArrayReply(br)
			return arrayVal{normAll(v), n}, err
		},
		func(br *bufio.Reader) (any, error) {
			v, n, err := redis.ReadArrayReply(br)
			return arrayVal{normAll(v), n}, err
		},
		// The slice entry point cuts the frame instead of copying it out:
		// each element must decode to the model's value, and the elements
		// joined back must be the frame's own bytes behind a canonical
		// header — so join(split(x)) == x for every x an encoder wrote (a
		// peer may write "*00", which the join does not reproduce).
		func(b []byte) (any, error) {
			elems, err := redis.SplitArrayReply(b)
			if err != nil {
				return nil, err
			}
			joined := redis.JoinArrayReply(elems)
			hdr := fmt.Sprintf("*%d\r\n", len(elems))
			if !bytes.HasPrefix(joined, []byte(hdr)) || !bytes.HasPrefix(b[bytes.IndexByte(b, '\n')+1:], joined[len(hdr):]) {
				return nil, fmt.Errorf("join(split(x)) = %q is not x behind a canonical header", joined)
			}
			v, n := make([][]byte, len(elems)), make([]bool, len(elems))
			for i, e := range elems {
				if v[i], n[i], err = redis.DecodeReply(e); err != nil {
					return nil, fmt.Errorf("element %d %q: %v", i, e, err)
				}
			}
			return arrayVal{normAll(v), n}, nil
		}},
}

// countReader counts what a bufio.Reader has pulled out of the source, so
// bytes consumed = pulled − still buffered.
type countReader struct {
	r io.Reader
	n int
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// parseStream runs one parse over src and reports what it returned and how
// much of the stream it took.
func parseStream(src io.Reader, parse func(*bufio.Reader) (any, error)) result {
	cr := &countReader{r: src}
	br := bufio.NewReader(cr)
	val, err := parse(br)
	res := result{class: classOf(err)}
	if err == nil {
		res.val, res.consumed = val, cr.n-br.Buffered()
	}
	return res
}

// agree checks one parse by the parser against the model's. quirk is the
// model's note that the input ran into an intended difference.
func agree(t testing.TB, what string, data []byte, want result, quirk bool, got result) {
	t.Helper()
	if quirk {
		if got.class != "Protocol" {
			t.Fatalf("%s of %q: the model met a signed length or an overlong header; the parser must refuse it, got class %q val %v",
				what, clip(data), got.class, got.val)
		}
		return
	}
	if got.class != want.class {
		t.Fatalf("%s of %q: error class %q, model %q", what, clip(data), got.class, want.class)
	}
	if !reflect.DeepEqual(got.val, want.val) {
		t.Fatalf("%s of %q: value %v, model %v", what, clip(data), got.val, want.val)
	}
	if got.consumed != want.consumed {
		t.Fatalf("%s of %q: consumed %d bytes, model %d", what, clip(data), got.consumed, want.consumed)
	}
}

func clip(b []byte) []byte {
	if len(b) > 96 {
		return append(append([]byte{}, b[:96]...), "..."...)
	}
	return b
}

// everySplit and noSplits are differ's strides.
const (
	everySplit = 1
	noSplits   = 0
)

// differ holds the parser to the model on one input and on the input
// followed by a copy of itself (a frame must be consumed to the byte when
// the next one is already in the buffer).
func differ(t testing.TB, data []byte, stride int) {
	t.Helper()
	differOne(t, data, stride)
	differOne(t, append(append([]byte{}, data...), data...), 0)
}

// differOne holds the parser to the model on one input, for all three
// frame kinds: decoded from the slice, read from a stream that delivers it
// whole, and one byte per Read; with a stride, also delivered in two pieces
// cut at every stride-th offset.
func differOne(t testing.TB, data []byte, stride int) {
	t.Helper()
	for _, c := range codecs {
		streamRef := &ref{lineLimit: bufio.NewReader(nil).Size()}
		want := parseStream(bytes.NewReader(data), func(br *bufio.Reader) (any, error) { return c.ref(streamRef, br) })
		sliceRef := &ref{lineLimit: math.MaxInt}
		parseStream(bytes.NewReader(data), func(br *bufio.Reader) (any, error) { return c.ref(sliceRef, br) })

		val, err := c.decode(data)
		got := result{class: classOf(err), consumed: want.consumed}
		if err == nil {
			got.val = val
		}
		agree(t, c.name+": decode", data, want, sliceRef.quirk, got)

		agree(t, c.name+": read", data, want, streamRef.quirk, parseStream(bytes.NewReader(data), c.read))
		agree(t, c.name+": read bytewise", data, want, streamRef.quirk,
			parseStream(iotest.OneByteReader(bytes.NewReader(data)), c.read))
		if stride == 0 {
			continue
		}
		for k := 1; k < len(data); k += stride {
			src := io.MultiReader(bytes.NewReader(data[:k]), bytes.NewReader(data[k:]))
			agree(t, fmt.Sprintf("%s: read split at %d", c.name, k), data, want, streamRef.quirk, parseStream(src, c.read))
		}
	}
}

// payload draws n bytes that are hard on a line-split parser: mostly
// binary, with CR, LF, CRLF and RESP type bytes mixed in.
func payload(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		switch rng.Intn(8) {
		case 0:
			b[i] = '\r'
		case 1:
			b[i] = '\n'
		case 2:
			b[i] = "*$+-:"[rng.Intn(5)]
		default:
			b[i] = byte(rng.Intn(256))
		}
	}
	return string(b)
}

// sizes are the payload lengths the generator draws from: empty, the
// lengths where the header grows a digit, the serve-mixed value, and both
// sides of bufio's 4 KiB buffer.
var sizes = []int{0, 1, 2, 9, 10, 11, 64, 99, 100, 1024, 4000, 4090, 4096, 4097, 5000, 9999, 10000}

func genSize(rng *rand.Rand) int {
	if rng.Intn(4) > 0 {
		return sizes[rng.Intn(7)] // mostly small
	}
	return sizes[rng.Intn(len(sizes))]
}

// genFrame draws one well-formed frame of any kind.
func genFrame(rng *rand.Rand) []byte {
	switch rng.Intn(8) {
	case 0:
		return redis.EncodeSimple(strings.Map(noCRLF, payload(rng, genSize(rng))))
	case 1:
		return redis.EncodeError(strings.Map(noCRLF, payload(rng, genSize(rng))))
	case 2:
		return redis.EncodeInt(rng.Int63() - rng.Int63())
	case 3:
		if rng.Intn(4) == 0 {
			return redis.EncodeBulk(nil)
		}
		return redis.EncodeBulk([]byte(payload(rng, genSize(rng))))
	case 4:
		vals := make([][]byte, rng.Intn(10))
		for i := range vals {
			if rng.Intn(4) > 0 {
				vals[i] = []byte(payload(rng, genSize(rng)))
			}
		}
		return redis.EncodeArray(vals)
	}
	args := make([]string, rng.Intn(10))
	for i := range args {
		args[i] = payload(rng, genSize(rng))
	}
	return redis.EncodeCommand(args...)
}

func noCRLF(r rune) rune {
	if r == '\r' || r == '\n' {
		return ' '
	}
	return r
}

// mutate damages a frame the ways a broken or hostile peer does: cut it
// short, flip a byte, give a length a sign or leading zeros, drop a CR.
func mutate(rng *rand.Rand, frame []byte) []byte {
	b := append([]byte{}, frame...)
	if len(b) == 0 {
		return b
	}
	switch rng.Intn(6) {
	case 0:
		return b[:rng.Intn(len(b))]
	case 1:
		b[rng.Intn(len(b))] = byte(rng.Intn(256))
	case 2, 3:
		// After a type byte, insert a sign or a run of zeros.
		from := rng.Intn(len(b))
		if i := bytes.IndexAny(b[from:], "*$"); i >= 0 {
			i += from + 1
			ins := []string{"+", "-", "0", "00000000000000000000", "-0"}[rng.Intn(5)]
			b = append(b[:i:i], append([]byte(ins), b[i:]...)...)
		}
	case 4:
		if i := bytes.IndexByte(b, '\r'); i >= 0 {
			b = append(b[:i:i], b[i+1:]...)
		}
	case 5:
		b = append(b, frame[:rng.Intn(len(frame)+1)]...)
	}
	return b
}

// TestCodecAgainstModel drives the generator through the comparison: every
// well-formed frame and a damaged copy of it, each split at every offset
// when it is small enough for that to stay quick.
func TestCodecAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	rounds := 400
	if testing.Short() {
		rounds = 60
	}
	for i := 0; i < rounds; i++ {
		frame := genFrame(rng)
		stride := noSplits
		if len(frame) < 600 {
			stride = everySplit
		}
		differ(t, frame, stride)
		differ(t, mutate(rng, frame), stride)
	}
}

// TestCodecAgainstModelShapes pins the shapes the issue names, each split at
// every offset: binary payloads with embedded CRLF, a body larger than
// bufio's 4 KiB buffer, the serve-mixed 1 KiB SET, an MGET of 8 and its
// array reply (larger than the buffer, nulls included), and commands left
// behind in the buffer by the one before.
func TestCodecAgainstModelShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	kib := payload(rng, 1024)
	keys := []string{"MGET"}
	vals := make([][]byte, 8)
	for i := range vals {
		keys = append(keys, fmt.Sprintf("key:%06d", i))
		if i != 3 {
			vals[i] = []byte(payload(rng, 1024))
		}
	}
	shapes := map[string][]byte{
		"crlf":        redis.EncodeCommand("SET", "k\r\ney", "va\r\nl\x00\xffue\r\n"),
		"get":         redis.EncodeCommand("GET", "key:000001"),
		"set-1k":      redis.EncodeCommand("SET", "key:000001", kib),
		"set-5k":      redis.EncodeCommand("SET", "key:000001", payload(rng, 5000)),
		"mget-8":      redis.EncodeCommand(keys...),
		"mget-8-resp": redis.EncodeArray(vals),
		"bulk-5k":     redis.EncodeBulk([]byte(payload(rng, 5000))),
		"long-error":  redis.EncodeError(strings.Repeat("x", 5000)), // a line longer than the buffer: refused by Read*, not by Decode*
		"empty-array": []byte("*0\r\n"),
	}
	for name, frame := range shapes {
		t.Run(name, func(t *testing.T) { differ(t, frame, everySplit) })
	}
	// 1500 one-byte arguments: the headers alone outgrow the buffer. Every
	// split costs a walk over all of them, so cut at every 13th offset —
	// coprime to the 7 bytes an argument takes, so every position inside
	// one is hit.
	t.Run("many-args", func(t *testing.T) {
		differ(t, redis.EncodeCommand(strings.Fields(strings.Repeat("a ", 1500))...), 13)
	})

	// Pipelined: each command must be consumed to the byte, with the next
	// ones already sitting in the buffer.
	t.Run("pipelined", func(t *testing.T) {
		var stream []byte
		for _, name := range []string{"get", "crlf", "set-1k", "get", "set-5k", "mget-8", "get"} {
			stream = append(stream, shapes[name]...)
		}
		for _, src := range []func() io.Reader{
			func() io.Reader { return bytes.NewReader(stream) },
			func() io.Reader { return iotest.OneByteReader(bytes.NewReader(stream)) },
			func() io.Reader { return iotest.HalfReader(bytes.NewReader(stream)) },
		} {
			model, parser := bufio.NewReader(src()), bufio.NewReader(src())
			for i := 0; ; i++ {
				want, werr := (&ref{}).readCommand(model)
				got, gerr := redis.ReadCommand(parser)
				if classOf(werr) != classOf(gerr) || !reflect.DeepEqual(want, got) {
					t.Fatalf("command %d: %d args (%v), model %d args (%v)", i, len(got), gerr, len(want), werr)
				}
				if werr != nil {
					if werr != io.EOF || i != 7 {
						t.Fatalf("stream ended after %d commands with %v", i, werr)
					}
					break
				}
			}
		}
	})
}

// TestEncodersAgainstModel compares every encoder with its fmt-based
// predecessor, byte for byte. They differ on purpose in one place: a CR or
// LF inside a "+" or "-" line goes out as a space (it used to end the line
// early and put the rest on the wire as a reply of its own).
func TestEncodersAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	same := func(what string, got, want []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: %q, model %q", what, clip(got), clip(want))
		}
	}
	dst := []byte("already here")
	for i := 0; i < 300; i++ {
		args := make([]string, rng.Intn(12))
		vals := make([][]byte, len(args))
		for j := range args {
			args[j] = payload(rng, genSize(rng))
			if rng.Intn(3) > 0 {
				vals[j] = []byte(args[j])
			}
		}
		same("EncodeCommand", redis.EncodeCommand(args...), refEncodeCommand(args...))
		same("AppendCommand", redis.AppendCommand(dst, args...), append(dst[:len(dst):len(dst)], refEncodeCommand(args...)...))
		same("EncodeArray", redis.EncodeArray(vals), refEncodeArray(vals))
		for _, v := range vals {
			same("EncodeBulk", redis.EncodeBulk(v), refEncodeBulk(v))
		}
		line := strings.Map(noCRLF, payload(rng, genSize(rng)))
		same("EncodeSimple", redis.EncodeSimple(line), refEncodeSimple(line))
		same("EncodeError", redis.EncodeError(line), refEncodeError(line))
		n := rng.Int63() - rng.Int63()
		same("EncodeInt", redis.EncodeInt(n), refEncodeInt(n))
	}
	for _, n := range []int64{0, 1, -1, 9, 10, math.MaxInt64, math.MinInt64} {
		same("EncodeInt", redis.EncodeInt(n), refEncodeInt(n))
	}
	for _, n := range []int{9, 10, 99, 100, 999, 1000, 9999, 10000, 99999, 100000} {
		v := bytes.Repeat([]byte{'v'}, n)
		same("EncodeBulk", redis.EncodeBulk(v), refEncodeBulk(v))
		if got := redis.EncodeBulk(v); cap(got) != len(got) {
			t.Errorf("EncodeBulk(%d bytes) allocated %d for %d", n, cap(got), len(got))
		}
	}
	same("EncodeBulk(empty)", redis.EncodeBulk([]byte{}), refEncodeBulk([]byte{}))
	same("EncodeUnknownCommand", redis.EncodeUnknownCommand("NOPE"),
		refEncodeError(fmt.Sprintf("unknown command '%s'", "NOPE")))
	same("EncodeWrongArity", redis.EncodeWrongArity("GeT"),
		refEncodeError(fmt.Sprintf("wrong number of arguments for '%s' command", "get")))
	same("EncodeMoved", redis.EncodeMoved(12, 3), []byte("-MOVED 12 node-3\r\n"))
	same("EncodeShardTimeout", redis.EncodeShardTimeout(2),
		[]byte("-SHARDTIMEOUT shard timeout: node 2 unreachable, retry\r\n"))
	same("EncodeShardDegraded", redis.EncodeShardDegraded(2, "why"), []byte("-SHARDDEGRADED node 2 degraded: why\r\n"))
	same("EncodeBusy", redis.EncodeBusy("full"), []byte("-BUSY full\r\n"))

	// The intended difference.
	same("EncodeUnknownCommand(LF)", redis.EncodeUnknownCommand("00\n0000"), []byte("-ERR unknown command '00 0000'\r\n"))
	same("EncodeSimple(CRLF)", redis.EncodeSimple("a\r\n+b"), []byte("+a  +b\r\n"))
}

// FuzzReadCommand feeds arbitrary bytes to the RESP parser, seeded with
// every table row and the inputs the parser and the model disagree on by
// design, and holds the parser to the model: same value, same error class,
// same bytes consumed — decoded from the slice, read whole and read one
// byte at a time, as a command, a reply and an array reply. Anything that
// parses as a command must also survive an encode/decode round trip and
// resolve against the table without panicking, to a command or to a
// refusal that is one well-formed error reply.
func FuzzReadCommand(f *testing.F) {
	for _, row := range redis.Commands() {
		f.Add(redis.EncodeCommand(validArgs(row, "k")...))
	}
	f.Add([]byte("*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$4\r\na\r\nb\r\n"))
	f.Add([]byte("*0\r\n"))
	f.Add([]byte("*1\r\n$0\r\n\r\n"))
	f.Add([]byte("*-1\r\n"))
	f.Add([]byte("$5\r\nhello\r\n"))
	f.Add([]byte("*1\r\n$999999999\r\n"))
	f.Add([]byte("*1\r\n$7\r\n00\n0000\r\n")) // a name with a LF in it: the refusal must stay one line
	// Lengths are digits only.
	f.Add([]byte("*1\r\n$+4\r\nPING\r\n"))
	f.Add([]byte("*+1\r\n$4\r\nPING\r\n"))
	f.Add([]byte("*1\r\n$-0\r\n\r\n"))
	f.Add([]byte("*-0\r\n"))
	f.Add([]byte("$-1\r\n"))
	f.Add([]byte("$-01\r\n"))
	f.Add([]byte("*2\r\n$-1\r\n$1\r\na\r\n"))
	// Header lines are bounded.
	f.Add([]byte("*1\r\n$000000000000000000004\r\nPING\r\n"))
	f.Add([]byte("*1\r\n$00000000000000000004\r\nPING\r\n"))
	f.Add(append([]byte("*"), bytes.Repeat([]byte("1"), 64)...))
	f.Add([]byte("+OK\r\n"))
	f.Add([]byte("-ERR x\r\n"))
	f.Add([]byte(":12\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		stride := noSplits
		if len(data) < 64 {
			stride = everySplit
		}
		differ(t, data, stride)

		args, err := redis.ReadCommand(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		again, err := redis.DecodeCommand(redis.EncodeCommand(args...))
		if err != nil {
			t.Fatalf("re-decode of %q failed: %v", args, err)
		}
		if !reflect.DeepEqual(args, again) {
			t.Fatalf("round trip changed %q to %q", args, again)
		}
		if cmd := redis.Lookup(args); cmd.By == redis.ByNobody {
			if _, _, err := redis.DecodeReply(cmd.Refusal(args)); !errors.As(err, new(redis.ReplyError)) {
				t.Fatalf("refusal of %q is not one error reply: %v", args, err)
			}
		}
	})
}
