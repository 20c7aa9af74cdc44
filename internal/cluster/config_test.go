package cluster

import (
	"strings"
	"testing"
	"time"

	"spacejmp/internal/hw"
	"spacejmp/internal/kernel"
)

// TestConfigValidate is the cluster's rules, row for row the checks that
// chaos.Spec.Validate and spacejmp-server's flag handling each used to make
// for themselves — and that New, before it delegated to the same function,
// did not make at all.
func TestConfigValidate(t *testing.T) {
	repl := func(c *Config) { c.Replication.Enabled = true }
	for _, row := range []struct {
		name string
		edit func(*Config)
		want string // a piece of the error; "" for a config that stands
	}{
		{"zero config", func(*Config) {}, ""},
		{"follower reads over replication", func(c *Config) { repl(c); c.Replication.FollowerReads = true }, ""},
		{"follower reads without replication", func(c *Config) { c.Replication.FollowerReads = true }, "follower reads need replication"},
		{"negative stale bound", func(c *Config) { repl(c); c.Replication.StaleBound = -time.Second }, "stale bound: negative"},
		{"negative breaker threshold", func(c *Config) { c.Overload.Breakers = true; c.Overload.BreakerThreshold = -1 }, "breaker threshold: negative"},
		{"negative breaker cooldown", func(c *Config) { c.Overload.Breakers = true; c.Overload.BreakerCooldown = -time.Millisecond }, "breaker cooldown: negative"},
		{"breaker threshold without breakers", func(c *Config) { c.Overload.BreakerThreshold = 3 }, "need breakers"},
		{"breaker cooldown without breakers", func(c *Config) { c.Overload.BreakerCooldown = time.Second }, "need breakers"},
		{"breaker knobs with breakers", func(c *Config) {
			c.Overload = OverloadConfig{Breakers: true, BreakerThreshold: 3, BreakerCooldown: time.Second}
		}, ""},
	} {
		var c Config
		row.edit(&c)
		err := c.Validate()
		if row.want != "" && (err == nil || !strings.Contains(err.Error(), row.want)) {
			t.Errorf("%s: Validate = %v, want an error saying %q", row.name, err, row.want)
		}
		if row.want == "" && err != nil {
			t.Errorf("%s: refused: %v", row.name, err)
		}
		// What passes as written passes as New runs on it.
		if err := c.WithDefaults().Validate(); row.want == "" && err != nil {
			t.Errorf("%s: refused once defaulted: %v", row.name, err)
		}
	}

	// New is held to them: the config a scenario file is refused for builds
	// no cluster either, and claims nothing on the way.
	m := hw.NewMachine(hw.SmallTest())
	base := m.PM.AllocatedBytes()
	var c Config
	c.Replication.FollowerReads = true
	if r, err := New(kernel.New(m), c); err == nil {
		r.Close()
		t.Error("New built a cluster with follower reads and no replication")
	}
	if err := m.PM.CheckLeaks(base); err != nil {
		t.Error(err)
	}
}

// TestNewInstallsSink: a cluster always counts. On a machine nobody enabled
// stats on, New installs a sink, and the one command served shows in
// sys.Stats() — on the node's row too.
func TestNewInstallsSink(t *testing.T) {
	sys := kernel.New(hw.NewMachine(hw.SmallTest()))
	r, err := New(sys, Config{Nodes: 1, Workers: 1, Mode: ModeVAS, SegSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := do(t, r, "SET", "k", "v"); v != "OK" {
		t.Fatalf("SET: %q", v)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	snap := sys.Stats().Dense()
	if cl := snap.Cluster; cl.Local != 1 || len(cl.Nodes) != 1 || cl.Nodes[0].Local != 1 || snap.Server.Commands != 1 {
		t.Errorf("cluster on a machine without a sink: cluster %+v, server %+v; want the one command counted", cl, snap.Server)
	}
}
