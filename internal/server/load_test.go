package server_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"spacejmp/internal/redis"
	"spacejmp/internal/server"
)

var update = flag.Bool("update", false, "rewrite testdata/load-streams.golden")

// responder is a RESP server that answers every command with what reply
// returns for it and keeps each connection's raw stream.
type responder struct {
	ln      net.Listener
	reply   func(args []string) []byte
	wg      sync.WaitGroup
	mu      sync.Mutex
	streams [][]byte
}

func newResponder(t *testing.T, reply func(args []string) []byte) *responder {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &responder{ln: ln, reply: reply}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			r.wg.Add(1)
			go r.serve(nc)
		}
	}()
	t.Cleanup(func() { r.close() })
	return r
}

func (r *responder) serve(nc net.Conn) {
	defer r.wg.Done()
	defer nc.Close()
	var raw bytes.Buffer
	br := bufio.NewReader(io.TeeReader(nc, &raw))
	for {
		args, err := redis.ReadCommand(br)
		if err != nil {
			break
		}
		if _, err := nc.Write(r.reply(args)); err != nil {
			break
		}
	}
	r.mu.Lock()
	r.streams = append(r.streams, raw.Bytes())
	r.mu.Unlock()
}

// close stops accepting and waits for every connection to end; the streams
// are complete after it.
func (r *responder) close() {
	r.ln.Close()
	r.wg.Wait()
}

func (r *responder) addr() string { return r.ln.Addr().String() }

func nilArray(n int) []byte {
	return redis.EncodeArray(make([][]byte, n))
}

// TestLoadCountsEachLie holds the verifier to what a lying server earns it:
// a responder answers the load's data commands in turn correctly and
// wrongly, tallies every reply it sends by the LoadResult counter that reply
// must land in, and the run's counters must equal the tally. Wrong GET bytes
// and an MGET one element short are mismatches; a cross-tenant probe answered
// $-1 is a leak (and a mismatch); a staleness probe answered $-1 after its
// version's ack aged past the 1 ms bound is a violation; -ERR is an error; and
// -BUSY, -QUOTA, -STALE and the probe's -NOPERM each land in their own bucket.
func TestLoadCountsEachLie(t *testing.T) {
	var mu sync.Mutex
	want := map[string]uint64{}
	count := func(names ...string) {
		mu.Lock()
		defer mu.Unlock()
		for _, n := range names {
			want[n]++
		}
	}
	turns := map[string]int{} // per reply class, so each class cycles through its answers
	turn := func(class string) int {
		mu.Lock()
		defer mu.Unlock()
		turns[class]++
		return turns[class] - 1
	}
	r := newResponder(t, func(args []string) []byte {
		switch strings.ToUpper(args[0]) {
		case "AUTH", "READONLY", "DEADLINE", "QUIT":
			return redis.EncodeSimple("OK")
		case "SET":
			count("commands", "sets")
			return redis.EncodeSimple("OK")
		case "MGET":
			count("commands", "mgets")
			if turn("mget")%2 == 0 {
				return nilArray(len(args) - 1)
			}
			count("mismatches")
			return nilArray(len(args) - 2)
		}
		switch _, _, probe := redis.SplitTenantKey(args[1]); {
		case probe:
			count("commands")
			if turn("probe")%2 == 0 {
				count("cross_leaks", "mismatches")
				return redis.EncodeBulk(nil)
			}
			count("cross_denied")
			return redis.EncodeNoPerm("view")
		case strings.HasPrefix(args[1], "stale."):
			count("commands", "gets")
			if turn("stale")%2 == 0 {
				// Outlive the bound: the version acked before this GET is
				// now older than 1 ms, so nil serves below the floor.
				time.Sleep(3 * time.Millisecond)
				count("stale_probes", "stale_violations")
				return redis.EncodeBulk(nil)
			}
			count("stale_rejected")
			return redis.EncodeStale("too old")
		}
		count("commands", "gets")
		switch turn("get") % 5 {
		case 1:
			count("mismatches")
			return redis.EncodeBulk([]byte("wrong"))
		case 2:
			count("errors")
			return redis.EncodeError("lying")
		case 3:
			count("busy")
			return redis.EncodeBusy("lying")
		case 4:
			count("quota_rejected")
			return redis.EncodeQuota("lying")
		}
		return redis.EncodeBulk(nil)
	})

	res, err := server.RunLoad(server.LoadConfig{
		Addr: r.addr(), Conns: 2, Pipeline: 4, Requests: 96,
		SetPercent: 20, MGetPercent: 20, MGetKeys: 3, Keys: 64, ValueSize: 16,
		Tenants: 2, CrossCheckEvery: 3,
		StaleReads: true, StaleBound: time.Millisecond,
		Deadline: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.close()
	js, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(js, &got); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"commands", "gets", "sets", "mgets", "busy", "errors", "mismatches",
		"quota_rejected", "cross_denied", "cross_leaks", "stale_probes", "stale_rejected", "stale_violations"} {
		if want[name] == 0 {
			t.Errorf("%s: the responder never earned it; the test lost its reach", name)
		}
		if g := got[name].(float64); uint64(g) != want[name] {
			t.Errorf("%s = %v, want %d", name, g, want[name])
		}
	}
	if res.Disconnects != 0 || res.Commands != 2*96 {
		t.Errorf("%d disconnects, %d commands: want 0 and %d", res.Disconnects, res.Commands, 2*96)
	}
}

// TestLoadCommandStreamsPinned pins what each connection sends, byte for byte,
// under four configs: a GET/SET/MGET mix, two tenants with cross-checks,
// stale reads, and a deadline. A seed must replay the same commands, so a
// change to how the load draws shows here as a diff against
// testdata/load-streams.golden (rewrite it with -update only when the draws
// are meant to move). The responder answers everything as an honest empty
// store would.
func TestLoadCommandStreamsPinned(t *testing.T) {
	base := server.LoadConfig{Conns: 2, Pipeline: 4, Requests: 24, SetPercent: 30, Keys: 16, ValueSize: 20, Seed: 7}
	configs := []struct {
		name string
		edit func(c *server.LoadConfig)
	}{
		{"mix", func(c *server.LoadConfig) { c.MGetPercent, c.MGetKeys = 25, 3 }},
		{"tenants", func(c *server.LoadConfig) { c.Tenants, c.CrossCheckEvery = 2, 5 }},
		{"stale", func(c *server.LoadConfig) { c.StaleReads = true }},
		{"deadline", func(c *server.LoadConfig) { c.Deadline = 250 * time.Millisecond }},
	}
	var out bytes.Buffer
	for _, tc := range configs {
		r := newResponder(t, func(args []string) []byte {
			switch {
			case strings.EqualFold(args[0], "MGET"):
				return nilArray(len(args) - 1)
			case strings.EqualFold(args[0], "GET"):
				if _, _, probe := redis.SplitTenantKey(args[1]); probe {
					return redis.EncodeNoPerm("view")
				}
				return redis.EncodeBulk(nil)
			}
			return redis.EncodeSimple("OK")
		})
		cfg := base
		cfg.Addr = r.addr()
		tc.edit(&cfg)
		res, err := server.RunLoad(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Commands != uint64(cfg.Conns*cfg.Requests) {
			t.Fatalf("%s: %d commands, want %d", tc.name, res.Commands, cfg.Conns*cfg.Requests)
		}
		r.close()
		slices.SortFunc(r.streams, bytes.Compare)
		for i, s := range r.streams {
			fmt.Fprintf(&out, "== %s, connection %d of %d\n", tc.name, i+1, len(r.streams))
			var a redis.Arena
			for len(s) > 0 {
				_, rest, err := a.DecodeNextCommand(s)
				if err != nil {
					t.Fatalf("%s: undecodable stream tail %q: %v", tc.name, s, err)
				}
				out.WriteString(strconv.Quote(string(s[:len(s)-len(rest)])) + "\n")
				s = rest
			}
		}
	}
	const golden = "testdata/load-streams.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("command streams differ from %s; got:\n%s", golden, out.Bytes())
	}
}
