package cluster

import (
	"bytes"
	"flag"
	"os"
	"testing"

	"spacejmp/internal/hw"
	"spacejmp/internal/server"
	"spacejmp/internal/stats"
)

var update = flag.Bool("update", false, "rewrite testdata/views.golden")

// TestViewsPinned holds the cluster's three text views — Router.String, the
// CLUSTER NODES reply and the CLUSTER SLOTS reply — to the bytes in
// testdata/views.golden, on a cluster with a node of every kind: two
// co-resident, a remote one across the socket whose standby was promoted, a
// removed one whose slots were drained onto the others, and an added one that
// owns no slot yet. Regenerate with
// `go test ./internal/cluster -run ViewsPinned -update` only when a view is
// meant to change.
func TestViewsPinned(t *testing.T) {
	// Cores: the two workers on socket 0, remote nodes 2 and 3 on socket 1,
	// the monitor, the migration engine; the added node takes the lowest core
	// a gone node's process gave back.
	hwCfg := hw.SmallTest()
	hwCfg.Sockets = 4
	cfg := replicatedConfig()
	cfg.Nodes = 4
	m, r, srv := startClusterOn(t, hwCfg, cfg, nil, server.Config{})
	defer srv.Shutdown()
	rep := func() *stats.ReplicationSnap { return m.Observer().Snapshot().Dense().Cluster.Replication }
	waitFor(t, "the boot ships", func() bool { return rep().Ships >= 2 })
	if err := r.RemoveNode(3); err != nil {
		t.Fatal(err)
	}
	if err := r.KillNode(2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "node 2's promotion", func() bool { return rep().Promotions == 1 })
	if _, err := r.AddNode(); err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	got.WriteString(r.String())
	got.Write(r.clusterNodesReply())
	got.Write(r.clusterSlotsReply())
	const path = "testdata/views.golden"
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
		t.Errorf("the cluster's views differ from %s:\ngot  %q\nwant %q", path, got.Bytes(), want)
	}
}
