//go:build !race

package redis_test

import (
	"bufio"
	"bytes"
	"fmt"
	"testing"

	"spacejmp/internal/core"
	"spacejmp/internal/hw"
	"spacejmp/internal/kernel"
	"spacejmp/internal/redis"
)

// TestCodecAllocations gates the wire path's allocation counts, so a
// regression shows in `go test` without the benchmark (not under -race,
// which allocates on its own). The commands of a buffer fill or a frame are
// two allocations between them — the arena's string every argument is a
// substring of, and its slab of argument slices — and so is a command parsed
// alone, however it arrived; a reply is the one value the caller owns;
// encoding into a buffer the caller keeps is none.
func TestCodecAllocations(t *testing.T) {
	get := redis.EncodeCommand("GET", "key:000001")
	set := redis.EncodeCommand("SET", "key:000001", string(make([]byte, 1024)))
	value := make([]byte, 64)
	bulk := redis.EncodeBulk(value)
	warm := make([]byte, 0, 4096)
	var sink int
	var gets []byte // a pipeline of 16 GETs, as one fill or one frame
	for i := range 16 {
		gets = redis.AppendCommand(gets, "GET", fmt.Sprintf("key:%06d", i))
	}
	src := bytes.NewReader(gets)
	fill := bufio.NewReaderSize(src, 4096)

	for _, c := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"DecodeCommand(GET k)", 2, func() {
			args, _ := redis.DecodeCommand(get)
			sink += len(args)
		}},
		{"DecodeCommand(SET k 1KiB)", 2, func() {
			args, _ := redis.DecodeCommand(set)
			sink += len(args)
		}},
		{"ReadCommand(GET k)", 2, func() func() {
			br := bufio.NewReader(&frames{frame: get})
			return func() {
				args, _ := redis.ReadCommand(br)
				sink += len(args)
			}
		}()},
		{"ReadCommand(SET k 1KiB)", 2, func() func() {
			br := bufio.NewReader(&frames{frame: set})
			return func() {
				args, _ := redis.ReadCommand(br)
				sink += len(args)
			}
		}()},
		{"a fill of 16 GETs through an Arena", 2, func() {
			src.Reset(gets)
			fill.Reset(src)
			var a redis.Arena
			args, _ := a.ReadCommand(fill)
			for ok := true; ok; args, ok = a.ReadBufferedCommand(fill) {
				sink += len(args)
			}
		}},
		{"a frame of 16 GETs through an Arena", 2, func() {
			var a redis.Arena
			for rest := gets; len(rest) > 0; {
				var args []string
				args, rest, _ = a.DecodeNextCommand(rest)
				sink += len(args)
			}
		}},
		{"ReadReply(64 B)", 1, func() func() {
			br := bufio.NewReader(&frames{frame: bulk})
			return func() {
				v, _, _ := redis.ReadReply(br)
				sink += len(v)
			}
		}()},
		{"DecodeReply(64 B)", 1, func() {
			v, _, _ := redis.DecodeReply(bulk)
			sink += len(v)
		}},
		{"EncodeBulk(64 B)", 1, func() { sink += len(redis.EncodeBulk(value)) }},
		{"EncodeCommand(GET k)", 1, func() { sink += len(redis.EncodeCommand("GET", "key:000001")) }},
		{"EncodeSimple(OK)", 1, func() { sink += len(redis.EncodeSimple("OK")) }},
		{"AppendCommand into a warm buffer", 0, func() {
			sink += len(redis.AppendCommand(warm[:0], "SET", "key:000001", "value"))
		}},
	} {
		if got := testing.AllocsPerRun(200, c.f); got > c.max {
			t.Errorf("%s: %.1f allocations, want at most %.0f", c.name, got, c.max)
		}
	}
	if sink == 0 {
		t.Fatal("nothing ran")
	}
}

// TestRunAllAllocations: a warm run of 16 SETs of 1 KiB through RunAll, into a
// chunk with room for the replies, allocates nothing. The keys and values
// reach the store as bytes through the buffer the client keeps for them;
// converted one by one they escaped through the store's Accessor, two
// allocations per SET.
func TestRunAllAllocations(t *testing.T) {
	sys := kernel.New(hw.NewMachine(hw.SmallTest()))
	proc, err := sys.NewProcess(core.Creds{UID: 1, GID: 1})
	if err != nil {
		t.Fatal(err)
	}
	th, err := proc.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	c, err := redis.NewClient(th, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	value := string(make([]byte, 1024))
	run := make([]redis.Call, 16)
	for i := range run {
		args := []string{"SET", fmt.Sprintf("key:%06d", i), value}
		run[i] = redis.Call{Cmd: redis.Lookup(args), Args: args}
	}
	chunk := make([]byte, 0, 4096)
	redis.RunAll(c, run, chunk) // warm: every key present, the buffer grown
	if got := testing.AllocsPerRun(100, func() { redis.RunAll(c, run, chunk) }); got != 0 {
		t.Errorf("a warm run of 16 SETs: %.1f allocations, want 0", got)
	}
	if string(run[15].Reply) != "+OK\r\n" {
		t.Fatalf("SET reply %q", run[15].Reply)
	}
}
