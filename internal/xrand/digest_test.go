package xrand

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// streamDigest hashes the first n outputs of draw (as little-endian
// 64-bit words) with FNV-64a.
func streamDigest(n int, draw func() uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(buf[:], draw())
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestStreamDigest pins every variate stream the repository's seeded
// results rest on: the first 10⁵ outputs of Uint64, Float64,
// NormFloat64 and Intn (small, odd, power-of-two, and huge bounds)
// from fixed seeds. Any change to the generator's arithmetic that
// alters one output changes a digest.
func TestStreamDigest(t *testing.T) {
	const n = 100_000
	cases := []struct {
		name string
		draw func(r *Rand) uint64
		want uint64
	}{
		{"Uint64", func(r *Rand) uint64 { return r.Uint64() }, 0x0d946df4cc8f54e4},
		{"Float64", func(r *Rand) uint64 { return math.Float64bits(r.Float64()) }, 0xba9a45943d278c45},
		{"NormFloat64", func(r *Rand) uint64 { return math.Float64bits(r.NormFloat64()) }, 0x445a6b43a014a8a2},
		{"Intn/1", func(r *Rand) uint64 { return uint64(r.Intn(1)) }, 0xe3dbd3f783edc725},
		{"Intn/7", func(r *Rand) uint64 { return uint64(r.Intn(7)) }, 0x3911a4d010cb6043},
		{"Intn/96", func(r *Rand) uint64 { return uint64(r.Intn(96)) }, 0x40705fb83093f12f},
		{"Intn/257", func(r *Rand) uint64 { return uint64(r.Intn(257)) }, 0x3f82a26292826789},
		{"Intn/1<<20", func(r *Rand) uint64 { return uint64(r.Intn(1 << 20)) }, 0x82b0267811bd9de8},
		{"Intn/1<<62+1", func(r *Rand) uint64 { return uint64(r.Intn(1<<62 + 1)) }, 0xfe9e50660ce96298},
		{"Intn/MaxInt64", func(r *Rand) uint64 { return uint64(r.Intn(math.MaxInt64)) }, 0xcc95f06a96574cea},
	}
	for _, c := range cases {
		r := New(0x1234_5678_9abc_def0)
		if got := streamDigest(n, func() uint64 { return c.draw(r) }); got != c.want {
			t.Errorf("%s: digest %#016x, want %#016x", c.name, got, c.want)
		}
	}
}

// TestIntnRejectionRuns checks that the golden's near-2⁶² bound really
// exercises Lemire's rejection branch: about a quarter of its draws
// consume more than one Uint64.
func TestIntnRejectionRuns(t *testing.T) {
	const n = 100_000
	r := New(0x1234_5678_9abc_def0)
	rejected := 0
	for i := 0; i < n; i++ {
		c := *r
		c.Uint64()
		r.Intn(1<<62 + 1)
		if c.s != r.s {
			rejected++
		}
	}
	if rejected < n/5 || rejected > n/3 {
		t.Fatalf("%d of %d draws rejected, want about a quarter", rejected, n)
	}
}
