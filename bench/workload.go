package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"spacejmp/internal/cluster"
	"spacejmp/internal/redis"
	"spacejmp/internal/tenant"
)

// workload is one traffic mix and the stack shape it runs against. The
// names are stable: later issues cite them.
type workload struct {
	name string
	why  string

	// direct runs a redis.Client on one core.Thread with no server and no
	// cluster; otherwise the full stack boots with nodes placed by mode.
	direct bool
	mode   cluster.Mode

	keys      int
	valueSize int
	segSize   uint64 // per store segment

	getPct, setPct int // the rest is MGET

	// mixed turns on what serve-mixed exercises below the connection
	// layer: replication with follower reads, the default deadline, and a
	// READONLY second connection. tenants adds the two demo tenants (the
	// ladder boots serve-mixed once without them to price the feature).
	mixed   bool
	tenants bool
}

const (
	conns         = 2
	pipelineDepth = 16
	routerWorkers = 2
	clusterNodes  = 3
	mgetKeys      = 8
	demoTenants   = 2
)

var workloads = []workload{
	{
		name:   "store-direct",
		why:    "substrate only (tlb/pt/hw/vm/core/mspace/redis store), no server/cluster/urpc; data is about 2x the TLB reach; simulated cycles repeat exactly",
		direct: true,
		keys:   64 << 10, valueSize: 128, segSize: 64 << 20,
		getPct: 90, setPct: 10,
	},
	{
		name: "serve-vas",
		why:  "the paper's headline path, one VAS switch per command on co-resident nodes; store work is small so server parse/conn and cluster routing own the host time",
		mode: cluster.ModeVAS,
		keys: 4096, valueSize: 64, segSize: 16 << 20,
		getPct: 95, setPct: 5,
	},
	{
		name: "serve-urpc",
		why:  "same traffic with every node remote: urpc, RESP re-encode and the node mutex dominate, so a urpc gain shows here and must not move serve-vas",
		mode: cluster.ModeURPC,
		keys: 4096, valueSize: 64, segSize: 16 << 20,
		getPct: 95, setPct: 5,
	},
	{
		name: "serve-mixed",
		why:  "writes beside reads, 1 KiB values, MGET fan-out, replication with COW forks, follower reads, tenants and deadlines: a read-path gain that costs writes or skips a feature shows here",
		mode: cluster.ModeAuto,
		keys: 4096, valueSize: 1024, segSize: 16 << 20,
		getPct: 40, setPct: 40,
		mixed: true, tenants: true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// tenantOf returns the demo tenant connection c works as and its secret
// ("" when the workload is single-tenant).
func (w workload) tenantOf(c int) (id, secret string) {
	if !w.tenants {
		return "", ""
	}
	return tenant.DemoID(c % demoTenants), tenant.DemoSecret(c % demoTenants)
}

// readonly reports whether connection c opts into follower reads.
func (w workload) readonly(c int) bool { return w.mixed && c == 1 }

type opKind uint8

const (
	opGet opKind = iota
	opSet
	opMGet
)

// op is one generated command: its kind and the key indices it names.
type op struct {
	kind opKind
	keys [mgetKeys]uint16 // keys[0] for GET/SET
}

func (o op) nkeys() int {
	if o.kind == opMGet {
		return mgetKeys
	}
	return 1
}

func keyName(i int) string { return fmt.Sprintf("k%06d", i) }

// valueWord is the 8-byte pattern stored under key i in a tenant's view. It
// never changes for a key, so bounded-stale reads verify like fresh ones,
// and it differs between tenants, so cross-view bleed is a mismatch.
func valueWord(tenantID string, i int) uint64 {
	x := uint64(i) + 0x9e3779b97f4a7c15
	for _, c := range []byte(tenantID) {
		x = (x ^ uint64(c)) * 0x100000001b3
	}
	// splitmix64 finalizer
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// fillValue writes the value pattern of word into buf.
func fillValue(buf []byte, word uint64) {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], word)
	for i := range buf {
		buf[i] = w[i&7]
	}
}

// valueMatches reports whether got is exactly the size-byte value of word.
func valueMatches(got []byte, word uint64, size int) bool {
	if len(got) != size {
		return false
	}
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], word)
	for i, b := range got {
		if b != w[i&7] {
			return false
		}
	}
	return true
}

// stream is one connection's command sequence, generated from the seed
// before any clock starts. The generator cycles through it; the program
// under test sees only the encoded bytes.
type stream struct {
	w        workload
	tenantID string
	secret   string
	ops      []op
	names    []string // key index → key as the client writes it
	words    []uint64 // key index → value pattern in this tenant's view
	wire     [][]byte // ops index → RESP encoding (nil for the direct workload)
}

// streamLen is the number of distinct commands a connection cycles through:
// longer than the traced ladder replays, a multiple of the pipeline depth.
const (
	streamLen       = 1 << 15
	directStreamLen = 1 << 17
)

// newStream generates connection c's stream for w from seed. The same
// (workload, seed, c) always yields the same bytes.
func newStream(w workload, seed int64, c int) *stream {
	n := streamLen
	if w.direct {
		n = directStreamLen
	}
	s := &stream{w: w, ops: make([]op, n)}
	s.tenantID, s.secret = w.tenantOf(c)
	s.names = make([]string, w.keys)
	s.words = make([]uint64, w.keys)
	for i := range s.names {
		s.names[i] = keyName(i)
		s.words[i] = valueWord(s.tenantID, i)
	}
	var widx int64
	for i, cand := range workloads {
		if cand.name == w.name {
			widx = int64(i)
		}
	}
	rng := rand.New(rand.NewSource(seed*1_000_003 + widx*7919 + int64(c)*104_729))
	readonly := w.readonly(c)
	for i := range s.ops {
		draw := rng.Intn(100)
		o := &s.ops[i]
		switch {
		case draw < w.getPct:
			o.kind = opGet
		case draw < w.getPct+w.setPct:
			o.kind = opSet
			if readonly {
				o.kind = opGet
			}
		default:
			o.kind = opMGet
		}
		for k := 0; k < o.nkeys(); k++ {
			o.keys[k] = uint16(rng.Intn(w.keys))
		}
	}
	if !w.direct {
		s.encode()
	}
	return s
}

// encode fills s.wire. GET and SET encodings are shared per key, so a
// stream of 1 KiB SETs costs one encoding per key, not one per command.
func (s *stream) encode() {
	gets := make([][]byte, s.w.keys)
	sets := make([][]byte, s.w.keys)
	val := make([]byte, s.w.valueSize)
	s.wire = make([][]byte, len(s.ops))
	args := make([]string, 1+mgetKeys)
	args[0] = "MGET"
	for i, o := range s.ops {
		k := int(o.keys[0])
		switch o.kind {
		case opGet:
			if gets[k] == nil {
				gets[k] = redis.EncodeCommand("GET", s.names[k])
			}
			s.wire[i] = gets[k]
		case opSet:
			if sets[k] == nil {
				fillValue(val, s.words[k])
				sets[k] = redis.EncodeCommand("SET", s.names[k], string(val))
			}
			s.wire[i] = sets[k]
		case opMGet:
			for j, key := range o.keys {
				args[1+j] = s.names[key]
			}
			s.wire[i] = redis.EncodeCommand(args...)
		}
	}
}

// args returns op i as the argument vector a parsed command would carry,
// with keys qualified into the stream's tenant view — what the connection
// layer hands the backend.
func (s *stream) args(i int) []string {
	o := s.ops[i]
	key := func(k uint16) string {
		if s.tenantID == "" {
			return s.names[k]
		}
		return redis.TenantKey(s.tenantID, s.names[k])
	}
	switch o.kind {
	case opGet:
		return []string{"GET", key(o.keys[0])}
	case opSet:
		val := make([]byte, s.w.valueSize)
		fillValue(val, s.words[o.keys[0]])
		return []string{"SET", key(o.keys[0]), string(val)}
	}
	a := make([]string, 1, 1+mgetKeys)
	a[0] = "MGET"
	for _, k := range o.keys {
		a = append(a, key(k))
	}
	return a
}

// replySize is the byte length of the correct reply to op i.
func (s *stream) replySize(i int) int {
	bulk := len(fmt.Sprintf("$%d\r\n", s.w.valueSize)) + s.w.valueSize + 2
	switch s.ops[i].kind {
	case opSet:
		return len("+OK\r\n")
	case opMGet:
		return len("*8\r\n") + mgetKeys*bulk
	}
	return bulk
}
