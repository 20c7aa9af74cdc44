package urpc

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"spacejmp/internal/fault"
	"spacejmp/internal/hw"
)

func TestLines(t *testing.T) {
	cases := []struct {
		n    int
		want uint64
	}{{0, 1}, {1, 1}, {PayloadPerLine, 1}, {PayloadPerLine + 1, 2}, {4096, 74}}
	for _, c := range cases {
		if got := Lines(c.n); got != c.want {
			t.Errorf("Lines(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestChannelFIFO(t *testing.T) {
	m := hw.NewMachine(hw.SmallTest())
	ch := NewChannel(m, 0, 1, 4)
	for i := 0; i < 4; i++ {
		if err := ch.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ch.Send([]byte{9}); err == nil {
		t.Error("send into full ring accepted")
	}
	for i := 0; i < 4; i++ {
		msg, err := ch.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if msg[0] != byte(i) {
			t.Errorf("message %d out of order: %d", i, msg[0])
		}
	}
	if _, err := ch.Recv(); err == nil {
		t.Error("recv from empty ring succeeded")
	}
}

func TestChannelWrapAround(t *testing.T) {
	m := hw.NewMachine(hw.SmallTest())
	ch := NewChannel(m, 0, 1, 2)
	seq := 0
	for round := 0; round < 5; round++ {
		if err := ch.Send([]byte{byte(seq)}); err != nil {
			t.Fatal(err)
		}
		seq++
		msg, err := ch.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if int(msg[0]) != seq-1 {
			t.Errorf("wrap round %d: got %d", round, msg[0])
		}
	}
}

func TestCostAttribution(t *testing.T) {
	m := hw.NewMachine(hw.SmallTest())
	ch := NewChannel(m, 0, 1, 8) // same socket
	tx, rx := m.Cores[0], m.Cores[1]
	t0, r0 := tx.Cycles(), rx.Cycles()
	payload := make([]byte, 200) // 4 lines
	if err := ch.Send(payload); err != nil {
		t.Fatal(err)
	}
	if got := tx.Cycles() - t0; got != 4*hw.DefaultCost.CacheLineXfer {
		t.Errorf("sender charged %d", got)
	}
	if _, err := ch.Recv(); err != nil {
		t.Fatal(err)
	}
	if got := rx.Cycles() - r0; got != 4*hw.DefaultCost.CacheLineXfer+DispatchCycles {
		t.Errorf("receiver charged %d", got)
	}
}

func TestCrossSocketCostsMore(t *testing.T) {
	m := hw.NewMachine(hw.SmallTest()) // cores 0,1 socket 0; 2,3 socket 1
	local := NewChannel(m, 0, 1, 4)
	cross := NewChannel(m, 0, 2, 4)
	if local.CrossSocket() || !cross.CrossSocket() {
		t.Fatal("socket detection wrong")
	}
	payload := make([]byte, 100)
	c0 := m.Cores[0].Cycles()
	if err := local.Send(payload); err != nil {
		t.Fatal(err)
	}
	localCost := m.Cores[0].Cycles() - c0
	c0 = m.Cores[0].Cycles()
	if err := cross.Send(payload); err != nil {
		t.Fatal(err)
	}
	crossCost := m.Cores[0].Cycles() - c0
	if crossCost <= localCost {
		t.Errorf("cross-socket send (%d) not costlier than local (%d)", crossCost, localCost)
	}
}

func TestRPCEcho(t *testing.T) {
	m := hw.NewMachine(hw.SmallTest())
	ep := Connect(m, 0, 1, 8, func(req []byte) []byte {
		out := append([]byte("echo:"), req...)
		return out
	})
	resp, err := ep.Call([]byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, []byte("echo:ping")) {
		t.Errorf("resp = %q", resp)
	}
}

func TestRPCLatencyGrowsWithSize(t *testing.T) {
	m := hw.NewMachine(hw.SmallTest())
	ep := Connect(m, 0, 1, 8192, func(req []byte) []byte { return req })
	var prev uint64
	for _, size := range []int{4, 64, 4096, 65536} {
		lat, err := ep.CallLatency(make([]byte, size))
		if err != nil {
			t.Fatal(err)
		}
		if lat <= prev {
			t.Errorf("latency at %dB (%d) not above %d", size, lat, prev)
		}
		prev = lat
	}
}

func TestRPCCrossSocketSlower(t *testing.T) {
	m := hw.NewMachine(hw.SmallTest())
	local := Connect(m, 0, 1, 64, func(req []byte) []byte { return req })
	cross := Connect(m, 0, 2, 64, func(req []byte) []byte { return req })
	l, err := local.CallLatency(make([]byte, 1024))
	if err != nil {
		t.Fatal(err)
	}
	x, err := cross.CallLatency(make([]byte, 1024))
	if err != nil {
		t.Fatal(err)
	}
	if x <= l {
		t.Errorf("cross-socket RPC (%d) not slower than local (%d)", x, l)
	}
}

func TestServerWorkReflectedInClientLatency(t *testing.T) {
	m := hw.NewMachine(hw.SmallTest())
	const work = 12345
	ep := Connect(m, 0, 1, 8, func(req []byte) []byte {
		m.Cores[1].AddCycles(work)
		return req
	})
	lat, err := ep.CallLatency([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if lat < work {
		t.Errorf("client latency %d does not include server work %d", lat, work)
	}
}

func TestPropertyMessagesNotCorrupted(t *testing.T) {
	m := hw.NewMachine(hw.SmallTest())
	ep := Connect(m, 0, 1, 16, func(req []byte) []byte { return req })
	f := func(payload []byte) bool {
		if len(payload) > 512 {
			payload = payload[:512]
		}
		resp, err := ep.Call(payload)
		return err == nil && bytes.Equal(resp, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestManyEndpointsSharedServerCore(t *testing.T) {
	// Several clients call into one server core; its cycle counter
	// accumulates all the handler work (the Redis-baseline saturation
	// model).
	m := hw.NewMachine(hw.SmallTest())
	server := m.Cores[1]
	before := server.Cycles()
	var eps []*Endpoint
	for i := 0; i < 3; i++ {
		eps = append(eps, Connect(m, 0, 1, 8, func(req []byte) []byte {
			server.AddCycles(1000)
			return []byte(fmt.Sprintf("ok-%s", req))
		}))
	}
	for round := 0; round < 10; round++ {
		for _, ep := range eps {
			if _, err := ep.Call([]byte("r")); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := server.Cycles() - before; got < 30*1000 {
		t.Errorf("server core accumulated only %d cycles", got)
	}
}

func TestCallTimesOutWhenEverythingDrops(t *testing.T) {
	m := hw.NewMachine(hw.SmallTest())
	reg := fault.New(11)
	m.SetFaults(reg)
	handled := 0
	ep := Connect(m, 0, 1, 8, func(req []byte) []byte { handled++; return req })
	ep.MaxRetries = 3

	reg.Enable(fault.URPCDrop, fault.Always())
	before := m.Cores[0].Cycles()
	_, err := ep.Call([]byte("lost"))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("call on dead channel: %v, want ErrTimeout", err)
	}
	if handled != 0 {
		t.Errorf("handler ran %d times on a dead channel", handled)
	}
	if got := ep.Retries(); got != 3 {
		t.Errorf("retries = %d, want 3", got)
	}
	// The client paid for every timeout window: at least the sum of the
	// exponentially backed-off waits.
	var waits uint64
	for try := 0; try <= 3; try++ {
		waits += DefaultTimeoutCycles << uint(try)
	}
	if got := m.Cores[0].Cycles() - before; got < waits {
		t.Errorf("client charged %d cycles, want >= %d of backoff", got, waits)
	}
	reqStats, _ := ep.ChannelStats()
	if reqStats.Drops != 4 {
		t.Errorf("request drops = %d, want 4", reqStats.Drops)
	}
	reg.Disable(fault.URPCDrop)

	// The channel heals: the next call completes and handler state is sane.
	resp, err := ep.Call([]byte("back"))
	if err != nil || !bytes.Equal(resp, []byte("back")) {
		t.Fatalf("call after heal: %q, %v", resp, err)
	}
	if handled != 1 {
		t.Errorf("handler ran %d times after heal, want 1", handled)
	}
}

func TestCallRetriesThroughLossyChannel(t *testing.T) {
	m := hw.NewMachine(hw.SmallTest())
	reg := fault.New(42)
	m.SetFaults(reg)
	ep := Connect(m, 0, 1, 8, func(req []byte) []byte {
		return append([]byte("ok:"), req...)
	})
	reg.Enable(fault.URPCDrop, fault.Probability(0.4))
	for i := 0; i < 50; i++ {
		want := []byte(fmt.Sprintf("ok:msg%d", i))
		resp, err := ep.Call([]byte(fmt.Sprintf("msg%d", i)))
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if !bytes.Equal(resp, want) {
			t.Fatalf("call %d: got %q, want %q", i, resp, want)
		}
	}
	reqStats, respStats := ep.ChannelStats()
	if reqStats.Drops+respStats.Drops == 0 {
		t.Error("probability(0.4) channel dropped nothing in 50 calls")
	}
	if ep.Retries() == 0 {
		t.Error("no retries despite drops")
	}
}

func TestAtMostOnceUnderResponseLoss(t *testing.T) {
	// The response to the first delivery is dropped; the retry must hit the
	// duplicate cache rather than rerunning the (non-idempotent) handler.
	m := hw.NewMachine(hw.SmallTest())
	reg := fault.New(5)
	m.SetFaults(reg)
	counter := uint64(0)
	ep := Connect(m, 0, 1, 8, func(req []byte) []byte {
		counter++ // XOR-style non-idempotent state change
		return []byte{byte(counter)}
	})
	// Hit 1 = request send (delivered), hit 2 = response send (dropped).
	reg.Enable(fault.URPCDrop, fault.OnNth(2))
	resp, err := ep.Call([]byte("inc"))
	if err != nil {
		t.Fatal(err)
	}
	if counter != 1 {
		t.Errorf("handler ran %d times, want exactly 1", counter)
	}
	if len(resp) != 1 || resp[0] != 1 {
		t.Errorf("resp = %v, want cached first response", resp)
	}
	if ep.Retries() != 1 {
		t.Errorf("retries = %d, want 1", ep.Retries())
	}
}

func TestDelayInjectionChargesSender(t *testing.T) {
	m := hw.NewMachine(hw.SmallTest())
	reg := fault.New(9)
	m.SetFaults(reg)
	ch := NewChannel(m, 0, 1, 4)
	reg.Enable(fault.URPCDelay, fault.OnNth(1))
	before := m.Cores[0].Cycles()
	if err := ch.Send([]byte("slow")); err != nil {
		t.Fatal(err)
	}
	if got := m.Cores[0].Cycles() - before; got < DelayCycles {
		t.Errorf("delayed send charged %d cycles, want >= %d", got, DelayCycles)
	}
	// The message still arrives.
	if msg, err := ch.Recv(); err != nil || !bytes.Equal(msg, []byte("slow")) {
		t.Errorf("delayed message lost: %q, %v", msg, err)
	}
	if ch.Stats().Delays != 1 {
		t.Errorf("delays = %d, want 1", ch.Stats().Delays)
	}
}

func TestCallBulkSizes(t *testing.T) {
	m := hw.NewMachine(hw.SmallTest())
	ep := Connect(m, 0, 1, 8, func(req []byte) []byte {
		n := int(req[0]) | int(req[1])<<8 | int(req[2])<<16
		out := make([]byte, n)
		for i := range out {
			out[i] = byte(i * 7)
		}
		return out
	})
	ring := 8 * PayloadPerLine
	for _, n := range []int{0, 1, 55, 56, 57, ring - 1, ring, ring + 1, 10 * ring} {
		resp, err := ep.CallBulk([]byte{byte(n), byte(n >> 8), byte(n >> 16)})
		if err != nil {
			t.Fatalf("size %d: %v", n, err)
		}
		if len(resp) != n {
			t.Fatalf("size %d: got %d bytes", n, len(resp))
		}
		for i, b := range resp {
			if b != byte(i*7) {
				t.Fatalf("size %d: byte %d corrupted (%d)", n, i, b)
			}
		}
	}
	if ep.Pending() != 0 {
		t.Errorf("pending frames after drained bulk calls: %d", ep.Pending())
	}
}

// TestCallStreamsWhatTheRingCannotHold: Call and CallBudget answer in one
// frame while the response fits the response ring and stream it, as CallBulk
// streams everything, once it does not — which is what lets a frame carrying
// a run of commands come back whole under a budget. A stream that keeps
// getting lost still gives up when the budget is dry.
func TestCallStreamsWhatTheRingCannotHold(t *testing.T) {
	m := hw.NewMachine(hw.SmallTest())
	reg := fault.New(3)
	m.SetFaults(reg)
	ep := Connect(m, 0, 1, 8, func(req []byte) []byte {
		out := make([]byte, int(req[0])|int(req[1])<<8)
		for i := range out {
			out[i] = byte(i * 7)
		}
		return out
	})
	ring := 8 * PayloadPerLine
	for _, n := range []int{0, ring - 1, ring, ring + 1, 10 * ring} {
		for _, budget := range []uint64{0, 1 << 30} {
			_, before := ep.ChannelStats()
			resp, err := ep.CallBudget([]byte{byte(n), byte(n >> 8)}, budget)
			if err != nil || len(resp) != n {
				t.Fatalf("size %d, budget %d: %d bytes, %v", n, budget, len(resp), err)
			}
			for i, b := range resp {
				if b != byte(i*7) {
					t.Fatalf("size %d: byte %d corrupted (%d)", n, i, b)
				}
			}
			_, after := ep.ChannelStats()
			if frames := after.Sends - before.Sends; (frames == 1) != (n <= ring) {
				t.Errorf("size %d came back in %d frames; the ring holds %d bytes", n, frames, ring)
			}
		}
	}
	reg.Enable(fault.URPCDrop, fault.EveryNth(3))
	const budget = 5 * DefaultTimeoutCycles
	before := m.Cores[0].Cycles()
	_, err := ep.CallBudget([]byte{byte(10 * ring % 256), byte(10 * ring >> 8)}, budget)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("a stream that loses every third frame, under a budget: %v, want ErrBudget", err)
	}
	if ep.Pending() != 0 {
		t.Errorf("pending frames after the abandoned stream: %d", ep.Pending())
	}
	if spent := m.Cores[0].Cycles() - before; spent > 2*budget {
		t.Errorf("the abandoned call burned %d cycles on a budget of %d", spent, budget)
	}
}

func TestCallBulkThroughLossyChannel(t *testing.T) {
	m := hw.NewMachine(hw.SmallTest())
	reg := fault.New(7)
	m.SetFaults(reg)
	calls := 0
	big := make([]byte, 4096)
	for i := range big {
		big[i] = byte(i)
	}
	ep := Connect(m, 0, 1, 8, func(req []byte) []byte {
		calls++ // non-idempotent: the duplicate cache must absorb retries
		return big
	})
	// A bulk exchange moves ~13 frames, so per-frame loss compounds
	// steeply; 5% still forces plenty of whole-call retries.
	reg.Enable(fault.URPCDrop, fault.Probability(0.05))
	for i := 0; i < 20; i++ {
		resp, err := ep.CallBulk([]byte{byte(i)})
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if !bytes.Equal(resp, big) {
			t.Fatalf("call %d: %d bytes, corrupted or short", i, len(resp))
		}
	}
	if calls != 20 {
		t.Errorf("handler ran %d times for 20 calls, want exactly 20 (at-most-once)", calls)
	}
	if ep.Retries() == 0 {
		t.Error("5%% loss over multi-frame streams produced no retries")
	}
	if ep.Pending() != 0 {
		t.Errorf("pending frames after drain: %d", ep.Pending())
	}
}

func TestCallBulkTimesOutWhenEverythingDrops(t *testing.T) {
	m := hw.NewMachine(hw.SmallTest())
	reg := fault.New(1)
	m.SetFaults(reg)
	ep := Connect(m, 0, 1, 8, func(req []byte) []byte { return make([]byte, 1024) })
	reg.Enable(fault.URPCDrop, fault.Always())
	_, err := ep.CallBulk([]byte("x"))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want timeout", err)
	}
	var te *TimeoutError
	if !errors.As(err, &te) || te.Retries != ep.MaxRetries {
		t.Errorf("timeout detail = %+v", err)
	}
}

// TestBackoffShiftCapped pins the fix for the unbounded exponential
// backoff: a large MaxRetries used to shift TimeoutCycles past 63 bits —
// the charges on the way there jumped the cycle counter by absurd amounts
// and at 64 the shift wrapped to a zero-cycle hot spin. The capped ladder
// keeps every wait at TimeoutCycles << MaxBackoffShift at most.
func TestBackoffShiftCapped(t *testing.T) {
	m := hw.NewMachine(hw.SmallTest())
	reg := fault.New(11)
	m.SetFaults(reg)
	ep := Connect(m, 0, 1, 8, func(req []byte) []byte { return req })
	ep.MaxRetries = 128 // would shift past 64 bits without the cap

	reg.Enable(fault.URPCDrop, fault.Always())
	before := m.Cores[0].Cycles()
	_, err := ep.Call([]byte("lost"))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("call on dead channel: %v, want ErrTimeout", err)
	}
	got := m.Cores[0].Cycles() - before
	// 129 tries, each charging at most the capped backoff plus the send.
	maxWait := uint64(129) * (DefaultTimeoutCycles<<MaxBackoffShift + 1<<20)
	if got > maxWait {
		t.Errorf("client charged %d cycles; capped ladder allows at most %d", got, maxWait)
	}
	// And every timeout window actually charged something: a wrapped shift
	// would make late tries free (a hot spin).
	minWait := uint64(129) * DefaultTimeoutCycles
	if got < minWait {
		t.Errorf("client charged %d cycles, want >= %d (no zero-cycle spins)", got, minWait)
	}
}

// TestCallBudgetNeverSleepsPastBudget pins the deadline guarantee: with a
// cycle budget, the retry loop's backoff never burns the client core past
// the caller's remaining allowance, and exhaustion surfaces as a typed
// *BudgetError rather than riding out the full retry ladder.
func TestCallBudgetNeverSleepsPastBudget(t *testing.T) {
	m := hw.NewMachine(hw.SmallTest())
	reg := fault.New(11)
	m.SetFaults(reg)
	ep := Connect(m, 0, 1, 8, func(req []byte) []byte { return req })
	ep.MaxRetries = 64

	reg.Enable(fault.URPCDrop, fault.Always())
	budget := uint64(3 * DefaultTimeoutCycles)
	before := m.Cores[0].Cycles()
	_, err := ep.CallBudget([]byte("lost"), budget)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("budgeted call on dead channel: %v, want ErrBudget", err)
	}
	// Budget exhaustion is still a retryable transport timeout end to end.
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("BudgetError must unwrap to ErrTimeout, got %v", err)
	}
	got := m.Cores[0].Cycles() - before
	// Backoff charges are clamped to the remaining budget, so the only
	// overrun allowed is the non-backoff work (sends) of the final try.
	slack := uint64(4096)
	if got > budget+slack {
		t.Errorf("budgeted call burned %d cycles, budget %d (+%d slack)", got, budget, slack)
	}
	reg.Disable(fault.URPCDrop)

	// A healthy budgeted call completes normally and charges the round
	// trip, not the budget.
	resp, err := ep.CallBudget([]byte("ok"), budget)
	if err != nil || !bytes.Equal(resp, []byte("ok")) {
		t.Fatalf("budgeted call on healthy channel: %q, %v", resp, err)
	}
}

// TestCallBudgetZeroIsUnbudgeted: budget 0 must behave exactly like Call.
func TestCallBudgetZeroIsUnbudgeted(t *testing.T) {
	m := hw.NewMachine(hw.SmallTest())
	reg := fault.New(11)
	m.SetFaults(reg)
	ep := Connect(m, 0, 1, 8, func(req []byte) []byte { return req })
	ep.MaxRetries = 2
	reg.Enable(fault.URPCDrop, fault.Always())
	_, err := ep.CallBudget([]byte("lost"), 0)
	var te *TimeoutError
	if !errors.As(err, &te) || te.Retries != 2 {
		t.Fatalf("unbudgeted call must ride the full retry ladder, got %v", err)
	}
}

// TestCallResponseNotAliased pins the response's ownership rule: what Call
// returns is the caller's own allocation, so the response of call n is
// untouched by calls n+1…n+k — whether the handler reuses one buffer for
// every response (as a server with a scratch buffer does), echoes the
// request frame, or the later call is a retry answered from the duplicate
// cache.
func TestCallResponseNotAliased(t *testing.T) {
	m := hw.NewMachine(hw.SmallTest())
	reg := fault.New(3)
	m.SetFaults(reg)
	shared := make([]byte, 200)
	handled := 0
	ep := Connect(m, 0, 1, 16, func(req []byte) []byte {
		handled++
		if req[0]%2 == 1 {
			return req // the request frame itself
		}
		for i := range shared {
			shared[i] = req[0] + byte(i)
		}
		return shared[:100+int(req[0])]
	})
	want := func(i int) []byte {
		req := bytes.Repeat([]byte{byte(i)}, 1+i*7)
		if i%2 == 1 {
			return req
		}
		out := make([]byte, 100+i)
		for j := range out {
			out[j] = byte(i) + byte(j)
		}
		return out
	}
	var got [][]byte
	for i := 0; i < 12; i++ {
		if i == 5 {
			// Call 5's first response is lost: its retry is a duplicate,
			// served from lastResp — which is call 5's own answer, not a
			// view of anything call 4 was handed.
			reg.Enable(fault.URPCDrop, fault.OnNth(2))
		}
		resp, err := ep.Call(bytes.Repeat([]byte{byte(i)}, 1+i*7))
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if cap(resp) != len(resp) {
			t.Errorf("call %d: response of %d bytes in an allocation of %d", i, len(resp), cap(resp))
		}
		got = append(got, resp)
		for j, r := range got {
			if !bytes.Equal(r, want(j)) {
				t.Fatalf("after call %d, the response of call %d reads %x, want %x", i, j, r, want(j))
			}
		}
	}
	if handled != 12 || ep.Retries() != 1 {
		t.Errorf("handler ran %d times with %d retries, want 12 and 1", handled, ep.Retries())
	}
	// Scribbling over a response must not reach the duplicate cache or
	// anything a later call returns.
	for i := range got[11] {
		got[11][i] = 0xee
	}
	resp, err := ep.Call(bytes.Repeat([]byte{12}, 85))
	if err != nil || !bytes.Equal(resp, want(12)) {
		t.Fatalf("call after scribble: %x, %v", resp, err)
	}
}

// TestHandlerFrameValidDuringCall pins the request's ownership rule: the
// frame a handler is given is whole and stable for as long as the handler
// runs — across its own work on the server core and across multi-line
// frames — and is the channel's buffer, not the caller's slice: the caller
// may reuse its request as soon as Call returns.
func TestHandlerFrameValidDuringCall(t *testing.T) {
	m := hw.NewMachine(hw.SmallTest())
	reg := fault.New(8)
	m.SetFaults(reg)
	var sent []byte
	var frames [][]byte // what the handler saw, copied while it ran
	ep := Connect(m, 0, 1, 64, func(req []byte) []byte {
		if !bytes.Equal(req, sent) {
			t.Errorf("handler got %d bytes %x, sent %d bytes", len(req), req[:min(len(req), 8)], len(sent))
		}
		m.Cores[1].AddCycles(1000)
		if !bytes.Equal(req, sent) {
			t.Errorf("frame changed under the handler")
		}
		if len(req) > 0 && len(sent) > 0 && &req[0] == &sent[0] {
			t.Errorf("handler was handed the caller's own slice")
		}
		frames = append(frames, append([]byte{}, req...))
		return []byte("ok")
	})
	reg.Enable(fault.URPCDrop, fault.Probability(0.2))
	buf := make([]byte, 0, 64*PayloadPerLine)
	sizes := []int{0, 1, PayloadPerLine, PayloadPerLine + 1, 700, 3, 2000, 56, 1}
	for i, n := range sizes {
		buf = buf[:n] // the caller reuses one request buffer for every call
		for j := range buf {
			buf[j] = byte(i*31 + j)
		}
		sent = buf
		if _, err := ep.Call(buf); err != nil {
			t.Fatalf("call %d (%d bytes): %v", i, n, err)
		}
	}
	if len(frames) != len(sizes) {
		t.Fatalf("handler ran %d times for %d calls", len(frames), len(sizes))
	}
	for i, n := range sizes {
		if len(frames[i]) != n {
			t.Errorf("call %d: handler saw %d bytes, want %d", i, len(frames[i]), n)
		}
	}
}

// TestScriptedSequenceIsModelIdentical runs a fixed script — calls of every
// kind and size over a channel with seeded drops and delays armed — and
// compares every modelled number with what the per-line-allocation
// implementation before it produced for the same script: client and server
// cycle charges, both channels' counters, retries. How the host moves the
// bytes must not be visible to the model.
func TestScriptedSequenceIsModelIdentical(t *testing.T) {
	m := hw.NewMachine(hw.SmallTest())
	reg := fault.New(20160402)
	m.SetFaults(reg)
	ep := Connect(m, 0, 2, 32, func(req []byte) []byte { // cross-socket
		m.Cores[2].AddCycles(uint64(100 + len(req)))
		out := make([]byte, 3*len(req)+5)
		for i := range out {
			out[i] = byte(i) ^ byte(len(req))
		}
		return out
	})
	reg.Enable(fault.URPCDrop, fault.Probability(0.15))
	reg.Enable(fault.URPCDelay, fault.Probability(0.1))
	var sum uint64 // a checksum over every response byte
	failed := 0
	for i := 0; i < 300; i++ {
		req := make([]byte, (i*37)%400)
		var resp []byte
		var err error
		switch i % 4 {
		case 0, 1:
			resp, err = ep.Call(req)
		case 2:
			resp, err = ep.CallBudget(req, 3*DefaultTimeoutCycles)
		case 3:
			resp, err = ep.CallBulk(req)
		}
		if err != nil {
			failed++
			continue
		}
		for j, b := range resp {
			sum += uint64(b) * uint64(j+1)
		}
	}
	reqStats, respStats := ep.ChannelStats()
	got := fmt.Sprintf("client=%d server=%d req=%+v resp=%+v retries=%d failed=%d sum=%d pending=%d",
		m.Cores[0].Cycles(), m.Cores[2].Cycles(), reqStats, respStats, ep.Retries(), failed, sum, ep.Pending())
	const want = "client=9962056 server=3008462 " +
		"req={Sends:449 Recvs:380 Lines:1807 Drops:69 Delays:52} " +
		"resp={Sends:496 Recvs:409 Lines:4321 Drops:87 Delays:54} " +
		"retries=149 failed=6 sum=8864377347 pending=0"
	if got != want {
		t.Errorf("modelled numbers moved:\n got %s\nwant %s", got, want)
	}
}
