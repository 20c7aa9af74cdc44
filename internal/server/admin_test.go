package server_test

import (
	"bufio"
	"encoding/json"
	"io"
	"net"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"
	"time"

	"spacejmp/internal/fault"
	"spacejmp/internal/server"
	"spacejmp/internal/stats"
)

// TestAdminEndpoints serves real traffic, then reads the live stats and
// trace over the admin HTTP surface while the server is still running:
// /stats is what sys.Stats() says, per-core totals and switches included.
func TestAdminEndpoints(t *testing.T) {
	sys, r, srv := startServer(t, nil)
	defer srv.Shutdown()

	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	if v, _, err := roundTrip(t, nc, br, "SET", "k", "v"); err != nil || string(v) != "OK" {
		t.Fatalf("SET: %q %v", v, err)
	}
	if v, _, err := roundTrip(t, nc, br, "GET", "k"); err != nil || string(v) != "v" {
		t.Fatalf("GET: %q %v", v, err)
	}

	admin := httptest.NewServer(server.AdminHandler(sys, r, nil))
	defer admin.Close()

	get := func(path string) []byte {
		t.Helper()
		resp, err := admin.Client().Get(admin.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	if len(get("/debug/pprof/cmdline")) == 0 {
		t.Error("/debug/pprof/cmdline: empty body; the runtime's profiles are not mounted on the admin mux")
	}

	var health struct {
		Status           string  `json:"status"`
		PlacementVersion *uint64 `json:"placement_version"`
	}
	if err := json.Unmarshal(get("/healthz"), &health); err != nil {
		t.Fatalf("healthz JSON: %v", err)
	}
	if health.Status != "ok" {
		t.Errorf("healthz status = %q, want ok", health.Status)
	}
	if health.PlacementVersion == nil || *health.PlacementVersion != 1 {
		t.Errorf("healthz placement version = %v, want the boot table's 1", health.PlacementVersion)
	}

	// Single-tenant server: the tenant listing is absent, loudly.
	if resp, err := admin.Client().Get(admin.URL + "/tenants"); err == nil {
		if resp.StatusCode != 404 {
			t.Errorf("/tenants without a registry: status %d, want 404", resp.StatusCode)
		}
		resp.Body.Close()
	}

	var snap stats.Snapshot
	if err := json.Unmarshal(get("/stats"), &snap); err != nil {
		t.Fatalf("stats JSON: %v", err)
	}
	if snap.Server == nil || snap.Server.Commands == 0 {
		t.Errorf("live stats missing server commands: %+v", snap.Server)
	}
	if snap.Server.ConnsAccepted == 0 {
		t.Error("live stats missing accepted connections")
	}
	// /stats is sys.Stats(): the per-core totals and the switch count, which
	// only hw and core can complete, are there too.
	var cycles uint64
	for _, c := range snap.Cores {
		cycles += c.Cycles
	}
	if cycles == 0 || snap.Switches == 0 {
		t.Errorf("/stats after a load: %d cycles over %d cores, %d switches; want both counted", cycles, len(snap.Cores), snap.Switches)
	}
	// Field for field, once the stack is still (a reply can reach the client
	// just before its worker has counted the command: wait that out).
	decode := func(raw []byte) (out stats.Snapshot) {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	for try := 0; ; try++ {
		before, _ := sys.Stats().JSON()
		served := get("/stats")
		if after, _ := sys.Stats().JSON(); string(before) != string(after) {
			if try == 100 {
				t.Fatal("the stack's counters never stood still")
			}
			time.Sleep(10 * time.Millisecond)
			continue
		}
		if got, want := decode(served), decode(before); !reflect.DeepEqual(got, want) {
			t.Errorf("/stats differs from sys.Stats():\ngot  %+v\nwant %+v", got, want)
		}
		break
	}

	var trace struct {
		Recorded uint64 `json:"recorded"`
		Events   []struct {
			Kind string `json:"kind"`
			Seq  uint64 `json:"seq"`
		} `json:"events"`
	}
	if err := json.Unmarshal(get("/trace?n=8"), &trace); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	if trace.Recorded == 0 || len(trace.Events) == 0 {
		t.Fatalf("trace empty: recorded=%d events=%d", trace.Recorded, len(trace.Events))
	}
	if len(trace.Events) > 8 {
		t.Errorf("asked for 8 events, got %d", len(trace.Events))
	}
	for _, e := range trace.Events {
		if e.Kind == "" {
			t.Errorf("event %d missing kind name", e.Seq)
		}
	}

	if resp, err := admin.Client().Get(admin.URL + "/trace?n=bogus"); err == nil {
		if resp.StatusCode != 400 {
			t.Errorf("bad n: status %d, want 400", resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestAdminStatsDelta drives the long-poll delta stream: the cursorless
// first call returns the full snapshot and a cursor; a follow-up with that
// cursor reports whether anything changed and hands back a fresh cursor;
// cursors are single-use (replay gets 410) and garbage gets 400. It also
// checks the /stats faults block reflects the armed registry rules.
func TestAdminStatsDelta(t *testing.T) {
	reg := fault.New(42)
	sys, r, srv := startServer(t, reg)
	defer srv.Shutdown()
	reg.EnableAt(fault.SrvConnStall, fault.TargetAny, "p=0.5", fault.Probability(0.5))

	admin := httptest.NewServer(server.AdminHandler(sys, r, nil))
	defer admin.Close()

	getJSON := func(path string, out any) int {
		t.Helper()
		resp, err := admin.Client().Get(admin.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if out != nil && resp.StatusCode == 200 {
			if err := json.Unmarshal(body, out); err != nil {
				t.Fatalf("GET %s: bad JSON %v (body %q)", path, err, body)
			}
		}
		return resp.StatusCode
	}

	// The faults block mirrors the armed rule.
	var withFaults struct {
		Faults []struct {
			Name   string `json:"name"`
			Target int    `json:"target"`
			Policy string `json:"policy"`
		} `json:"faults"`
	}
	if code := getJSON("/stats", &withFaults); code != 200 {
		t.Fatalf("/stats status %d", code)
	}
	if len(withFaults.Faults) != 1 || withFaults.Faults[0].Name != fault.SrvConnStall ||
		withFaults.Faults[0].Policy != "p=0.5" {
		t.Fatalf("faults block = %+v, want the armed server.conn.stall rule", withFaults.Faults)
	}

	var first struct {
		Cursor  uint64 `json:"cursor"`
		Changed bool   `json:"changed"`
	}
	if code := getJSON("/stats/delta", &first); code != 200 {
		t.Fatalf("first delta call: status %d", code)
	}
	if first.Cursor == 0 || !first.Changed {
		t.Fatalf("first delta call = %+v, want a cursor and changed=true", first)
	}

	// Generate activity so the poll sees a change without waiting out the
	// window.
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	if v, _, err := roundTrip(t, nc, br, "SET", "dk", "dv"); err != nil || string(v) != "OK" {
		t.Fatalf("SET: %q %v", v, err)
	}
	// The reply reaches the client before the worker counts the command; the
	// delta must not be cut in between (it was, once, under go test -race ./...).
	for deadline := time.Now().Add(2 * time.Second); sys.M.Observer().Snapshot().Dense().Server.Commands == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}

	var second struct {
		Cursor  uint64          `json:"cursor"`
		Changed bool            `json:"changed"`
		Delta   *stats.Snapshot `json:"delta"`
	}
	url := "/stats/delta?wait=2s&cursor=" + strconv.FormatUint(first.Cursor, 10)
	if code := getJSON(url, &second); code != 200 {
		t.Fatalf("second delta call: status %d", code)
	}
	if !second.Changed || second.Delta == nil {
		t.Fatalf("second delta call = changed=%v delta=%v, want a changed delta", second.Changed, second.Delta)
	}
	if second.Delta.Server == nil || second.Delta.Server.Commands == 0 {
		t.Errorf("delta did not attribute the SET: %+v", second.Delta.Server)
	}

	// Cursors are single-use: replaying the consumed one is Gone.
	if code := getJSON(url, nil); code != 410 {
		t.Errorf("replayed cursor: status %d, want 410", code)
	}
	if code := getJSON("/stats/delta?cursor=bogus", nil); code != 400 {
		t.Errorf("bad cursor: status %d, want 400", code)
	}
	if code := getJSON("/stats/delta?cursor="+strconv.FormatUint(second.Cursor, 10)+"&wait=nope", nil); code != 400 {
		t.Errorf("bad wait: status %d, want 400", code)
	}
}

// stubCluster fakes a cluster router for the admin surface.
type stubCluster struct {
	frames int
	nodes  []server.NodeHealth
}

func (s *stubCluster) PendingFrames() int          { return s.frames }
func (s *stubCluster) Health() []server.NodeHealth { return s.nodes }
func (s *stubCluster) PlacementInfo() server.PlacementInfo {
	return server.PlacementInfo{Version: 1, Slots: 256, Ranges: []server.SlotRangeInfo{{Start: 0, End: 255, Node: 0}}}
}

// TestAdminClusterHealth drives the cluster-aware admin surface: /stats
// grows a cluster_runtime block, and /healthz flips to 503 with per-node
// JSON detail the moment any key range is degraded.
func TestAdminClusterHealth(t *testing.T) {
	sys, _, srv := startServer(t, nil)
	defer srv.Shutdown()

	cl := &stubCluster{frames: 7, nodes: []server.NodeHealth{
		{Node: 0, Local: true, State: "healthy"},
		{Node: 1, Replicated: true, State: "healthy"},
	}}
	admin := httptest.NewServer(server.AdminHandler(sys, cl, nil))
	defer admin.Close()

	resp, err := admin.Client().Get(admin.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	healthy, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthy cluster: /healthz status %d, want 200", resp.StatusCode)
	}
	var okBody struct {
		Status           string  `json:"status"`
		PlacementVersion *uint64 `json:"placement_version"`
	}
	if err := json.Unmarshal(healthy, &okBody); err != nil {
		t.Fatalf("healthz JSON: %v (body %q)", err, healthy)
	}
	if okBody.Status != "ok" || okBody.PlacementVersion == nil || *okBody.PlacementVersion != 1 {
		t.Fatalf("healthz = %+v, want ok with placement version 1", okBody)
	}

	var wrapped struct {
		Runtime struct {
			PendingFrames int                 `json:"pending_frames"`
			Nodes         []server.NodeHealth `json:"nodes"`
		} `json:"cluster_runtime"`
	}
	resp, err = admin.Client().Get(admin.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := json.Unmarshal(body, &wrapped); err != nil {
		t.Fatalf("stats JSON: %v", err)
	}
	if wrapped.Runtime.PendingFrames != 7 || len(wrapped.Runtime.Nodes) != 2 {
		t.Fatalf("cluster_runtime = %+v, want 7 pending frames and 2 nodes", wrapped.Runtime)
	}

	cl.nodes[1] = server.NodeHealth{Node: 1, Replicated: true, State: "degraded", Degraded: true,
		LostUpdates: 3, Detail: "no recoverable replica"}
	resp, err = admin.Client().Get(admin.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("degraded cluster: /healthz status %d, want 503", resp.StatusCode)
	}
	var report struct {
		Status string              `json:"status"`
		Nodes  []server.NodeHealth `json:"nodes"`
	}
	if err := json.Unmarshal(body, &report); err != nil {
		t.Fatalf("healthz JSON: %v (body %q)", err, body)
	}
	if report.Status != "degraded" || len(report.Nodes) != 1 || report.Nodes[0].Node != 1 {
		t.Fatalf("healthz report = %+v, want node 1 degraded", report)
	}
	if report.Nodes[0].LostUpdates != 3 || report.Nodes[0].Detail == "" {
		t.Fatalf("healthz detail missing: %+v", report.Nodes[0])
	}
}
