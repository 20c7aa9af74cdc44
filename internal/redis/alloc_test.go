//go:build !race

package redis_test

import (
	"bufio"
	"testing"

	"spacejmp/internal/redis"
)

// TestCodecAllocations gates the wire path's allocation counts, so a
// regression shows in `go test` without the benchmark (not under -race,
// which allocates on its own). A parsed command is two allocations — the
// string every argument is a substring of, and the argument slice — however
// it arrived; a reply is the one value the caller owns; encoding into a
// buffer the caller keeps is none.
func TestCodecAllocations(t *testing.T) {
	get := redis.EncodeCommand("GET", "key:000001")
	set := redis.EncodeCommand("SET", "key:000001", string(make([]byte, 1024)))
	value := make([]byte, 64)
	bulk := redis.EncodeBulk(value)
	warm := make([]byte, 0, 4096)
	var sink int

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
