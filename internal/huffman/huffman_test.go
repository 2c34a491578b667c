package huffman

import (
	"bytes"
	"container/heap"
	"encoding/binary"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"lossycorr/internal/bitstream"
	"lossycorr/internal/xrand"
)

func roundtrip(t *testing.T, symbols []uint16) {
	t.Helper()
	enc := AppendEncode(nil, symbols)
	dec, err := DecodeInto(nil, enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(dec) != len(symbols) {
		t.Fatalf("length %d want %d", len(dec), len(symbols))
	}
	for i := range dec {
		if dec[i] != symbols[i] {
			t.Fatalf("symbol %d: got %d want %d", i, dec[i], symbols[i])
		}
	}
}

func TestEmpty(t *testing.T) { roundtrip(t, []uint16{}) }

func TestSingleSymbol(t *testing.T) {
	roundtrip(t, []uint16{7})
	roundtrip(t, []uint16{7, 7, 7, 7, 7, 7})
}

func TestTwoSymbols(t *testing.T) {
	roundtrip(t, []uint16{0, 65535, 0, 0, 65535})
}

func TestAscending(t *testing.T) {
	s := make([]uint16, 1000)
	for i := range s {
		s[i] = uint16(i % 300)
	}
	roundtrip(t, s)
}

// skewedStream draws n symbols, 95% of them 100 and the rest uniform
// over [0, 50).
func skewedStream(n int) []uint16 {
	rng := xrand.New(3)
	s := make([]uint16, n)
	for i := range s {
		if rng.Float64() < 0.95 {
			s[i] = 100
		} else {
			s[i] = uint16(rng.Intn(50))
		}
	}
	return s
}

// codesLikeStream mimics a codec's quantization-code stream: n
// Laplace-distributed codes of the given scale around quant's zero
// code 32768, with draws that fall off the 16-bit range replaced by
// the escape symbol 0.
func codesLikeStream(seed uint64, n int, scale float64) []uint16 {
	rng := xrand.New(seed)
	s := make([]uint16, n)
	for i := range s {
		u := rng.Float64() - 0.5
		v := 32768 + math.Round(-scale*math.Copysign(math.Log(1-2*math.Abs(u)), u))
		if v >= 1 && v <= math.MaxUint16 {
			s[i] = uint16(v)
		}
	}
	return s
}

func TestSkewedDistributionCompresses(t *testing.T) {
	// 95% one symbol: entropy ≈ 0.3 bits/symbol, so payload must be far
	// below 16 bits/symbol.
	s := skewedStream(20000)
	enc := AppendEncode(nil, s)
	if len(enc) > len(s)/2 {
		t.Fatalf("skewed stream encoded to %d bytes for %d symbols", len(enc), len(s))
	}
	roundtrip(t, s)
}

func TestQuickRoundtrip(t *testing.T) {
	f := func(s []uint16) bool {
		enc := AppendEncode(nil, s)
		dec, err := DecodeInto(nil, enc)
		if err != nil {
			return false
		}
		if len(dec) != len(s) {
			return false
		}
		for i := range s {
			if dec[i] != s[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	if _, err := DecodeInto(nil, nil); err == nil {
		t.Fatal("nil stream should error")
	}
	if _, err := DecodeInto(nil, []byte{1, 2, 3}); err == nil {
		t.Fatal("short stream should error")
	}
	enc := AppendEncode(nil, []uint16{1, 2, 3, 1, 2, 3, 9, 9})
	// truncate the payload
	if _, err := DecodeInto(nil, enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated payload should error")
	}
	// corrupt the declared symbol count upward
	bad := append([]byte(nil), enc...)
	bad[0] = 0xff
	if _, err := DecodeInto(nil, bad); err == nil {
		t.Fatal("inflated count should error")
	}
}

func TestHeaderDeterminism(t *testing.T) {
	s := []uint16{5, 1, 5, 2, 5, 3}
	a := AppendEncode(nil, s)
	b := AppendEncode(nil, s)
	if !bytes.Equal(a, b) {
		t.Fatal("encoding not deterministic")
	}
}

func TestManyDistinctSymbols(t *testing.T) {
	s := make([]uint16, 5000)
	rng := xrand.New(8)
	for i := range s {
		s[i] = uint16(rng.Intn(65536))
	}
	roundtrip(t, s)
}

// encodeMapRef is the pre-dense-table encoder, retained verbatim with
// its helpers renamed: frequencies counted into a map, the tree built
// through container/heap over *node, and codes assigned by sort.Slice
// and looked up per symbol in a map. The dense encoder is pinned
// byte-identical against it below. Its length clamp breaks ties in map
// iteration order, so it is deterministic only for trees of depth <=
// MaxCodeLen.
type nodeMapRef struct {
	freq        uint64
	symbol      uint16
	leaf        bool
	left, right *nodeMapRef
}

type nodeHeapMapRef []*nodeMapRef

func (h nodeHeapMapRef) Len() int { return len(h) }
func (h nodeHeapMapRef) Less(i, j int) bool {
	if h[i].freq != h[j].freq {
		return h[i].freq < h[j].freq
	}
	// tie-break on symbol for determinism
	return h[i].symbol < h[j].symbol
}
func (h nodeHeapMapRef) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeapMapRef) Push(x interface{}) { *h = append(*h, x.(*nodeMapRef)) }
func (h *nodeHeapMapRef) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// codeLengthsMapRef computes Huffman code lengths from frequencies, then
// clamps to MaxCodeLen with a simple Kraft-sum repair pass.
func codeLengthsMapRef(freq map[uint16]uint64) map[uint16]uint8 {
	lengths := make(map[uint16]uint8, len(freq))
	switch len(freq) {
	case 0:
		return lengths
	case 1:
		for s := range freq {
			lengths[s] = 1
		}
		return lengths
	}
	// Slab-allocate the tree: a Huffman tree over n leaves has exactly
	// 2n−1 nodes, so one allocation sized up front replaces one
	// allocation per node (the capacity is never exceeded, keeping the
	// interior pointers stable).
	nodes := make([]nodeMapRef, 0, 2*len(freq)-1)
	alloc := func(n nodeMapRef) *nodeMapRef {
		nodes = append(nodes, n)
		return &nodes[len(nodes)-1]
	}
	h := make(nodeHeapMapRef, 0, len(freq))
	for s, f := range freq {
		h = append(h, alloc(nodeMapRef{freq: f, symbol: s, leaf: true}))
	}
	heap.Init(&h)
	for h.Len() > 1 {
		a := heap.Pop(&h).(*nodeMapRef)
		b := heap.Pop(&h).(*nodeMapRef)
		heap.Push(&h, alloc(nodeMapRef{freq: a.freq + b.freq, symbol: minSymMapRef(a, b), left: a, right: b}))
	}
	root := h[0]
	var walk func(n *nodeMapRef, depth uint8)
	walk = func(n *nodeMapRef, depth uint8) {
		if n.leaf {
			if depth == 0 {
				depth = 1
			}
			lengths[n.symbol] = depth
			return
		}
		walk(n.left, depth+1)
		walk(n.right, depth+1)
	}
	walk(root, 0)
	clampLengthsMapRef(lengths)
	return lengths
}

func minSymMapRef(a, b *nodeMapRef) uint16 {
	if a.symbol < b.symbol {
		return a.symbol
	}
	return b.symbol
}

// clampLengthsMapRef enforces MaxCodeLen while keeping the Kraft inequality
// tight enough for a valid prefix code.
func clampLengthsMapRef(lengths map[uint16]uint8) {
	over := false
	for _, l := range lengths {
		if l > MaxCodeLen {
			over = true
			break
		}
	}
	if !over {
		return
	}
	for s, l := range lengths {
		if l > MaxCodeLen {
			lengths[s] = MaxCodeLen
		}
	}
	// repair Kraft sum K = Σ 2^-l <= 1 by lengthening the shortest codes
	kraft := func() float64 {
		var k float64
		for _, l := range lengths {
			k += 1 / float64(uint64(1)<<l)
		}
		return k
	}
	for kraft() > 1 {
		// lengthen the symbol with the shortest length < MaxCodeLen
		var best uint16
		bestLen := uint8(MaxCodeLen + 1)
		for s, l := range lengths {
			if l < bestLen {
				best, bestLen = s, l
			}
		}
		if bestLen >= MaxCodeLen {
			break
		}
		lengths[best] = bestLen + 1
	}
}

// canonicalMapRef assigns canonical codes (shorter lengths first, then symbol
// order) given lengths. Returned map is symbol → (code, length).
func canonicalMapRef(lengths map[uint16]uint8) map[uint16]codeEntry {
	type sl struct {
		sym uint16
		l   uint8
	}
	list := make([]sl, 0, len(lengths))
	for s, l := range lengths {
		list = append(list, sl{s, l})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].l != list[j].l {
			return list[i].l < list[j].l
		}
		return list[i].sym < list[j].sym
	})
	codes := make(map[uint16]codeEntry, len(list))
	var code uint32
	var prevLen uint8
	for _, e := range list {
		code <<= e.l - prevLen
		codes[e.sym] = codeEntry{code: code, len: e.l}
		code++
		prevLen = e.l
	}
	return codes
}

// encodeMapRef compresses symbols into a self-describing byte stream.
func encodeMapRef(symbols []uint16) []byte {
	freq := make(map[uint16]uint64)
	for _, s := range symbols {
		freq[s]++
	}
	lengths := codeLengthsMapRef(freq)
	codes := canonicalMapRef(lengths)

	// header: numSymbols(u32), numDistinct(u32), then (symbol u16, len u8)*
	hdr := make([]byte, 8, 8+3*len(lengths))
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(symbols)))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(lengths)))
	type sl struct {
		sym uint16
		l   uint8
	}
	list := make([]sl, 0, len(lengths))
	for s, l := range lengths {
		list = append(list, sl{s, l})
	}
	sort.Slice(list, func(i, j int) bool { return list[i].sym < list[j].sym })
	for _, e := range list {
		var b [3]byte
		binary.LittleEndian.PutUint16(b[0:], e.sym)
		b[2] = e.l
		hdr = append(hdr, b[:]...)
	}

	w := bitstream.NewWriter()
	for _, s := range symbols {
		e := codes[s]
		w.WriteBits(uint64(e.code), uint(e.len))
	}
	return append(hdr, w.Bytes()...)
}

// decodeMapRef is the pre-dense-table decoder, retained verbatim but
// for its output's capacity: a map keyed by (length, code) walked bit
// by bit. The dense canonical decoder is pinned byte-identical against
// it below.
func decodeMapRef(data []byte) ([]uint16, error) {
	if len(data) < 8 {
		return nil, ErrCorrupt
	}
	count := int(binary.LittleEndian.Uint32(data[0:]))
	distinct := int(binary.LittleEndian.Uint32(data[4:]))
	if count < 0 || distinct < 0 || distinct > 1<<16 {
		return nil, ErrCorrupt
	}
	if len(data) < 8+3*distinct {
		return nil, ErrCorrupt
	}
	lengths := make(map[uint16]uint8, distinct)
	for i := 0; i < distinct; i++ {
		off := 8 + 3*i
		sym := binary.LittleEndian.Uint16(data[off:])
		l := data[off+2]
		if l == 0 || l > MaxCodeLen {
			return nil, ErrCorrupt
		}
		lengths[sym] = l
	}
	if count == 0 {
		return []uint16{}, nil
	}
	if distinct == 0 {
		return nil, ErrCorrupt
	}
	codes := canonicalMapRef(lengths)
	type key struct {
		len  uint8
		code uint32
	}
	table := make(map[key]uint16, len(codes))
	maxLen := uint8(0)
	for s, e := range codes {
		table[key{e.len, e.code}] = s
		if e.len > maxLen {
			maxLen = e.len
		}
	}
	payload := data[8+3*distinct:]
	r := bitstream.NewReader(payload)
	// The capacity is capped at the payload's bit count, which bounds
	// the symbols any stream can yield: an arbitrary 4-byte count must
	// not make the reference allocate gigabytes under fuzzing.
	out := make([]uint16, 0, min(count, 8*len(payload)))
	for len(out) < count {
		var code uint32
		var l uint8
		found := false
		for l < maxLen {
			b, err := r.ReadBit()
			if err != nil {
				return nil, err
			}
			code = code<<1 | uint32(b)
			l++
			if s, ok := table[key{l, code}]; ok {
				out = append(out, s)
				found = true
				break
			}
		}
		if !found {
			return nil, ErrCorrupt
		}
	}
	return out, nil
}

// refStreams is the corpus the dense decoder is pinned against:
// empty, single-symbol (one occurrence and repeated), two-symbol,
// uniform, skewed, and full-range random streams.
func refStreams() [][]uint16 {
	streams := [][]uint16{
		{},
		{7},
		{7, 7, 7, 7, 7},
		{0, 65535, 0, 0, 65535},
	}
	rng := xrand.New(17)
	for c := 0; c < 30; c++ {
		n := rng.Intn(3000)
		alphabet := 1 + rng.Intn(1<<uint(1+rng.Intn(16)))
		s := make([]uint16, n)
		for i := range s {
			if c%3 == 0 && rng.Float64() < 0.9 {
				s[i] = uint16(alphabet / 2) // heavy skew every third case
			} else {
				s[i] = uint16(rng.Intn(alphabet))
			}
		}
		streams = append(streams, s)
	}
	return streams
}

// TestDenseDecoderMatchesMapRef pins the dense canonical decoder
// byte-identical against the retained map-keyed decoder over the
// reference corpus, and on truncated streams checks both fail.
func TestDenseDecoderMatchesMapRef(t *testing.T) {
	for ci, s := range refStreams() {
		enc := AppendEncode(nil, s)
		want, wantErr := decodeMapRef(enc)
		got, gotErr := DecodeInto(nil, enc)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("case %d: error mismatch: ref %v vs dense %v", ci, wantErr, gotErr)
		}
		if len(got) != len(want) {
			t.Fatalf("case %d: length %d vs ref %d", ci, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("case %d symbol %d: %d vs ref %d", ci, i, got[i], want[i])
			}
		}
		if len(enc) > 9 {
			trunc := enc[:len(enc)-1]
			_, refErr := decodeMapRef(trunc)
			_, denseErr := DecodeInto(nil, trunc)
			if (refErr == nil) != (denseErr == nil) {
				t.Fatalf("case %d truncated: ref err %v vs dense err %v", ci, refErr, denseErr)
			}
		}
	}
}

// TestEncodeMatchesMapRef pins the dense encoder byte-identical
// against the retained map-keyed encoder: the reference corpus, a
// stream of ~5,000 distinct symbols drawn uniformly, the skewed
// stream, and a codes-like stream of ~7,000 distinct symbols spread
// over the whole 16-bit range.
func TestEncodeMatchesMapRef(t *testing.T) {
	rng := xrand.New(8)
	alphabet := make([]uint16, 5000)
	for i := range alphabet {
		alphabet[i] = uint16(rng.Intn(65536))
	}
	uniform := make([]uint16, 40000)
	for i := range uniform {
		uniform[i] = alphabet[rng.Intn(len(alphabet))]
	}
	streams := append(refStreams(), uniform, skewedStream(20000), codesLikeStream(5, 9216, 4000))
	for ci, s := range streams {
		if got, want := AppendEncode(nil, s), encodeMapRef(s); !bytes.Equal(got, want) {
			t.Fatalf("case %d (%d symbols): dense encoding (%d bytes) differs from map reference (%d bytes)",
				ci, len(s), len(got), len(want))
		}
	}
}

// clampFreqs are frequencies that force the length clamp with ties:
// 8 equally heavy symbols, then a 40-long Fibonacci chain whose tree is
// 39 levels deep.
func clampFreqs() []uint64 {
	freq := make([]uint64, 0, 48)
	for range 8 {
		freq = append(freq, 1<<30)
	}
	a, b := uint64(1), uint64(1)
	for range 40 {
		freq = append(freq, a)
		a, b = b, a+b
	}
	return freq
}

// encodeWithLengths writes the stream AppendEncode would write for symbols
// if the distinct symbols syms (ascending) had the given code lengths.
func encodeWithLengths(symbols, syms []uint16, lengths []uint8) []byte {
	hdr := make([]byte, 8, 8+3*len(syms))
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(symbols)))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(syms)))
	codes := make(map[uint16]codeEntry, len(syms))
	for i, e := range canonical(nil, lengths) {
		codes[syms[i]] = e
		hdr = binary.LittleEndian.AppendUint16(hdr, syms[i])
		hdr = append(hdr, lengths[i])
	}
	w := bitstream.NewWriter()
	for _, s := range symbols {
		w.WriteBits(uint64(codes[s].code), uint(codes[s].len))
	}
	return append(hdr, w.Bytes()...)
}

// TestClampLengthsDeterministic feeds clampFreqs to codeLengths: the
// clamp must lengthen the lowest of the tied shortest symbols, so the
// lengths are one fixed table, run after run, with a Kraft sum <= 1
// that round-trips every symbol.
func TestClampLengthsDeterministic(t *testing.T) {
	// The tree puts heavy symbol 0 at depth 4, the other seven at 3,
	// and the chain 39 levels below a depth-4 node: its 12 symbols
	// deeper than 32 clamp to 32, and lengthening symbol 1 — the lowest
	// of the seven tied at 3 — restores the Kraft sum.
	want := []uint8{
		4, 4, 3, 3, 3, 3, 3, 3,
		32, 32, 32, 32, 32, 32, 32, 32, 32, 32, 32, 32, 32,
		31, 30, 29, 28, 27, 26, 25, 24, 23, 22, 21, 20, 19, 18,
		17, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5,
	}
	freq := clampFreqs()
	for run := range 50 {
		got := new(encoder).codeLengths(freq)
		if !bytes.Equal(got, want) {
			t.Fatalf("run %d: lengths %v, want %v", run, got, want)
		}
	}
	var kraft uint64
	for _, l := range want {
		kraft += 1 << (MaxCodeLen - l)
	}
	if kraft > 1<<MaxCodeLen {
		t.Fatalf("Kraft sum %d/2^32 > 1", kraft)
	}
	syms := make([]uint16, len(freq))
	for i := range syms {
		syms[i] = uint16(3 * i)
	}
	var stream []uint16
	for r := range 3 {
		for i := range syms {
			stream = append(stream, syms[(i*7+r)%len(syms)])
		}
	}
	dec, err := DecodeInto(nil, encodeWithLengths(stream, syms, want))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !slices.Equal(dec, stream) {
		t.Fatal("clamped code does not round-trip")
	}
}

// TestDecodeHeaderFormsMatchMapRef crafts headers AppendEncode never writes —
// unsorted, with a symbol listed twice (the last listing wins), and
// overfull (Kraft sum > 1) — and checks the dense decoder accepts and
// rejects them, and decodes them, exactly as the map reference does.
func TestDecodeHeaderFormsMatchMapRef(t *testing.T) {
	type ent struct {
		sym uint16
		l   uint8
	}
	stream := func(count uint32, ents []ent, payload ...byte) []byte {
		b := binary.LittleEndian.AppendUint32(nil, count)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(ents)))
		for _, e := range ents {
			b = binary.LittleEndian.AppendUint16(b, e.sym)
			b = append(b, e.l)
		}
		return append(b, payload...)
	}
	payloads := [][]byte{
		{0x00}, {0xff}, {0x5a, 0xc3}, {0x81, 0x7e, 0x00, 0xff},
		{0xde, 0xad, 0xbe, 0xef, 0x01, 0x23, 0x45, 0x67, 0x89},
		{0x80, 0x04, 0x01, 0x20, 0x04, 0x00}, // 2, 0, 65535, 8 under the past-the-peek-table header
	}
	headers := [][]ent{
		{{9, 2}, {3, 2}, {700, 1}},                     // unsorted
		{{5, 1}, {5, 2}, {6, 2}, {7, 2}},               // duplicate: 5 takes length 2
		{{5, 2}, {6, 2}, {7, 2}, {5, 1}, {9, 3}},       // duplicate listed last
		{{1, 1}, {2, 1}, {3, 1}, {4, 2}},               // overfull at length 1
		{{1, 1}, {2, 2}, {3, 3}, {4, 3}, {0, 32}},      // overfull: the length-32 code is unreachable
		{{8, 12}, {2, 12}, {65535, 13}, {0, 1}},        // codes past the peek table
		{{1, 32}, {2, 32}},                             // only long codes
		{{4, 3}, {4, 3}, {4, 3}},                       // one symbol, thrice
		{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {65535, 4}},   // complete
		{{10, 5}, {11, 5}, {12, 4}, {13, 3}, {14, 33}}, // invalid length
	}
	for hi, h := range headers {
		for pi, p := range payloads {
			for count := uint32(1); count <= 9; count++ {
				data := stream(count, h, p...)
				got, gotErr := DecodeInto(nil, data)
				ref, refErr := decodeMapRef(data)
				if (gotErr == nil) != (refErr == nil) {
					t.Fatalf("header %d payload %d count %d: dense err %v vs ref %v", hi, pi, count, gotErr, refErr)
				}
				if !slices.Equal(got, ref) {
					t.Fatalf("header %d payload %d count %d: dense %v vs ref %v", hi, pi, count, got, ref)
				}
			}
		}
	}
}

// FuzzRoundTrip fuzzes AppendEncode→DecodeInto over arbitrary symbol streams
// (bytes pairwise-widened to uint16), including the empty and
// single-symbol seeds, and cross-checks the dense encoder and decoder
// against the map references on every input. (The map encoder is
// nondeterministic only for trees deeper than MaxCodeLen, which no
// fuzz-sized input can build.)
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x07, 0x00})
	f.Add([]byte{0x07, 0x00, 0x07, 0x00, 0x07, 0x00})
	f.Add([]byte{0x01, 0x02, 0x03, 0x04, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, raw []byte) {
		s := make([]uint16, len(raw)/2)
		for i := range s {
			s[i] = uint16(raw[2*i]) | uint16(raw[2*i+1])<<8
		}
		enc := AppendEncode(nil, s)
		if !bytes.Equal(enc, encodeMapRef(s)) {
			t.Fatal("dense encoder diverges from map reference")
		}
		dec, err := DecodeInto(nil, enc)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if len(dec) != len(s) {
			t.Fatalf("length %d want %d", len(dec), len(s))
		}
		for i := range s {
			if dec[i] != s[i] {
				t.Fatalf("symbol %d: got %d want %d", i, dec[i], s[i])
			}
		}
		ref, refErr := decodeMapRef(enc)
		if refErr != nil {
			t.Fatalf("map reference failed on valid stream: %v", refErr)
		}
		for i := range ref {
			if dec[i] != ref[i] {
				t.Fatalf("dense decoder diverges from map reference at %d", i)
			}
		}
	})
}

// FuzzDecodeArbitrary feeds arbitrary bytes to DecodeInto: it may reject
// them, but must never panic, and whenever both decoders accept, the
// outputs must agree.
func FuzzDecodeArbitrary(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendEncode(nil, []uint16{1, 2, 3, 1, 2, 3, 9}))
	f.Add([]byte{5, 0, 0, 0, 2, 0, 0, 0, 1, 0, 3, 2, 0, 5, 0xaa, 0xbb})
	f.Fuzz(func(t *testing.T, raw []byte) {
		got, gotErr := DecodeInto(nil, raw)
		ref, refErr := decodeMapRef(raw)
		if (gotErr == nil) != (refErr == nil) {
			t.Fatalf("error mismatch: dense %v vs ref %v", gotErr, refErr)
		}
		if gotErr == nil {
			if len(got) != len(ref) {
				t.Fatalf("length %d vs ref %d", len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("output diverges at %d", i)
				}
			}
		}
	})
}

// benchStreams are the benchmarks' inputs: a 64K-symbol stream 90% one
// symbol and the rest over 512, and a stream shaped like a 96×96
// field's quantization codes (9,216 symbols, ~5,000 distinct).
func benchStreams() []struct {
	name string
	s    []uint16
} {
	rng := xrand.New(3)
	skewed := make([]uint16, 1<<16)
	for i := range skewed {
		if rng.Float64() < 0.9 {
			skewed[i] = 42
		} else {
			skewed[i] = uint16(rng.Intn(512))
		}
	}
	return []struct {
		name string
		s    []uint16
	}{{"skewed", skewed}, {"codes", codesLikeStream(7, 9216, 1400)}}
}

// BenchmarkEncode measures the dense encoder against the retained
// map-keyed reference.
func BenchmarkEncode(b *testing.B) {
	for _, st := range benchStreams() {
		for _, enc := range []struct {
			name string
			fn   func([]uint16) []byte
		}{{"dense", func(s []uint16) []byte { return AppendEncode(nil, s) }}, {"mapref", encodeMapRef}} {
			b.Run(st.name+"/"+enc.name, func(b *testing.B) {
				b.SetBytes(int64(2 * len(st.s)))
				for i := 0; i < b.N; i++ {
					enc.fn(st.s)
				}
			})
		}
	}
}

// BenchmarkDecode measures the decompression hot loop the dense table
// exists for, against the retained map-keyed reference.
func BenchmarkDecode(b *testing.B) {
	for _, st := range benchStreams() {
		enc := AppendEncode(nil, st.s)
		for _, dec := range []struct {
			name string
			fn   func([]byte) ([]uint16, error)
		}{{"dense", func(d []byte) ([]uint16, error) { return DecodeInto(nil, d) }}, {"mapref", decodeMapRef}} {
			b.Run(st.name+"/"+dec.name, func(b *testing.B) {
				b.SetBytes(int64(2 * len(st.s)))
				for i := 0; i < b.N; i++ {
					if _, err := dec.fn(enc); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
