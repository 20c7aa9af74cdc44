package stats

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/stats-snapshot.golden.json")

// goldenStates are the sink states whose /stats JSON is pinned: a sink that
// recorded nothing (every optional block absent, maps empty), one with a few
// blocks alive (server without a shard table, cluster with replication only
// and an all-zero node table, tenants installed but idle) and the full script.
func goldenStates() []*Snapshot {
	sparse := NewSink(1)
	sparse.Cluster().Nodes.Row(1)
	sparse.Tenant(0)
	sparse.Server().Commands.Add(1)
	sparse.Server().LatencyNs.Observe(5)
	sparse.ClusterShip(0, 10, true)
	sparse.Syscall(OpSegAlloc, 0)
	return []*Snapshot{NewSink(2).Snapshot(), sparse.Snapshot(), scriptedSink(2, 5).Snapshot()}
}

// TestSnapshotGolden holds json.Marshal of a Snapshot — what /stats serves
// and every script greps — to the bytes the hand-written Snapshot() produced:
// field order, omitempty, nil against empty maps, bucket arrays. One state
// per line. Regenerate with `go test ./internal/stats -run Golden -update`
// only when the schema itself changes.
func TestSnapshotGolden(t *testing.T) {
	var got bytes.Buffer
	for _, snap := range goldenStates() {
		line, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		got.Write(line)
		got.WriteByte('\n')
	}
	const path = "testdata/stats-snapshot.golden.json"
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("snapshot JSON differs from %s:\ngot  %s\nwant %s", path, got.Bytes(), want)
	}
}
