//go:build !race

package urpc

import "testing"

// TestCallAllocations gates the transport's allocation count (not under
// -race, which allocates on its own): a round trip allocates the response
// the caller keeps and nothing else — ring slots hold their payload in
// place and the request is reassembled into the channel's buffer. A bulk
// round trip allocates the reassembled response, once.
func TestCallAllocations(t *testing.T) {
	req := make([]byte, 32) // one line
	ep := benchEndpoint(make([]byte, 70))
	if got := testing.AllocsPerRun(200, func() {
		if _, err := ep.Call(req); err != nil {
			t.Fatal(err)
		}
	}); got > 1 {
		t.Errorf("Call, 1-line request and 2-line response: %.1f allocations, want at most 1", got)
	}
	bulk := benchEndpoint(make([]byte, 40000)) // three ring-fuls
	if got := testing.AllocsPerRun(50, func() {
		if _, err := bulk.CallBulk(req); err != nil {
			t.Fatal(err)
		}
	}); got > 1 {
		t.Errorf("CallBulk, 40000-byte response: %.1f allocations, want at most 1", got)
	}
}
