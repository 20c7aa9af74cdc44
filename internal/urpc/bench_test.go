package urpc

import (
	"testing"

	"spacejmp/internal/hw"
)

// The urpc rungs of the ladder: a GET-shaped round trip (one request line,
// a 64-byte value in two response lines) through Call and CallBudget, and a
// 4 KiB response streamed through a 256-slot ring by CallBulk. sim-cycles/op
// is the client core's charge per call — the model's number, which how the
// host moves the bytes must not change.
func benchEndpoint(resp []byte) *Endpoint {
	m := hw.NewMachine(hw.M1())
	return Connect(m, 0, 2, 256, func([]byte) []byte { return resp })
}

var benchResp []byte

func benchCalls(b *testing.B, resp []byte, call func(*Endpoint, []byte) ([]byte, error)) {
	ep := benchEndpoint(resp)
	req := make([]byte, 32)
	start := ep.ClientCore().Cycles()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := call(ep, req)
		if err != nil || len(got) != len(resp) {
			b.Fatal(len(got), err)
		}
		benchResp = got
	}
	b.StopTimer()
	b.ReportMetric(float64(ep.ClientCore().Cycles()-start)/float64(b.N), "sim-cycles/op")
}

func BenchmarkCall(b *testing.B) {
	benchCalls(b, make([]byte, 70), (*Endpoint).Call)
}

func BenchmarkCallBudget(b *testing.B) {
	benchCalls(b, make([]byte, 70), func(ep *Endpoint, req []byte) ([]byte, error) {
		return ep.CallBudget(req, 1<<20)
	})
}

func BenchmarkCallBulk(b *testing.B) {
	benchCalls(b, make([]byte, 4096), (*Endpoint).CallBulk)
}
