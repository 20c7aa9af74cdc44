package redis_test

import (
	"bufio"
	"testing"

	"spacejmp/internal/redis"
)

// frames is an endless pipeline of one frame, and allocates nothing.
type frames struct {
	frame []byte
	off   int
}

func (f *frames) Read(p []byte) (int, error) {
	for n := 0; n < len(p); {
		c := copy(p[n:], f.frame[f.off:])
		n += c
		if f.off += c; f.off == len(f.frame) {
			f.off = 0
		}
	}
	return len(p), nil
}

// The codec rungs of the ladder: the bytes of the benchmark's two command
// shapes (a GET, and serve-mixed's 1 KiB SET) through the stream reader and
// the slice decoder, and a GET's 64-byte value through the reply encoder.
var benchShapes = []struct {
	name  string
	frame []byte
}{
	{"get", redis.EncodeCommand("GET", "key:000001")},
	{"set1k", redis.EncodeCommand("SET", "key:000001", string(make([]byte, 1024)))},
}

var benchArgs []string

func BenchmarkReadCommand(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(s.name, func(b *testing.B) {
			br := bufio.NewReader(&frames{frame: s.frame})
			b.ReportAllocs()
			b.SetBytes(int64(len(s.frame)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				args, err := redis.ReadCommand(br)
				if err != nil {
					b.Fatal(err)
				}
				benchArgs = args
			}
		})
	}
}

func BenchmarkDecodeCommand(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(s.frame)))
			for i := 0; i < b.N; i++ {
				args, err := redis.DecodeCommand(s.frame)
				if err != nil {
					b.Fatal(err)
				}
				benchArgs = args
			}
		})
	}
}

var benchReply []byte

func BenchmarkEncodeBulk(b *testing.B) {
	value := make([]byte, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchReply = redis.EncodeBulk(value)
	}
}

func BenchmarkEncodeCommand(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchReply = redis.EncodeCommand("GET", "key:000001")
	}
}
