// Package huffman implements a canonical Huffman coder over 16-bit
// symbols. It is the entropy stage of the SZ-like and MGARD-like
// compressors, mirroring the Huffman pass of the original SZ pipeline.
//
// The encoded stream is self-describing: a compact header enumerates
// the (symbol, code length) pairs of the canonical code followed by the
// symbol count and the bit payload, so DecodeInto needs no side channel.
//
// Both directions work on flat tables sized to the stream — its symbol
// range or its distinct symbols — with no maps, no pointer tree and no
// comparison sort. AppendEncode counts into a range-sized table, builds the
// tree by merging two sorted queues of nodes keyed (frequency, lowest
// symbol), assigns canonical codes by counting codes per length, and
// writes the payload into one buffer sized from the code lengths.
// DecodeInto resolves short codes through a multi-bit peek table and walks
// the canonical first-code table for the rest. Neither keeps state
// between calls: both take their tables from pooled scratch that
// every call overwrites.
package huffman

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"lossycorr/internal/bitstream"
	"lossycorr/internal/scratch"
)

// MaxCodeLen caps code lengths; with <= 65536 symbols and the package's
// length-limiting rebalancing pass, 32 bits is always achievable.
const MaxCodeLen = 32

// MaxEncodedLen is the longest stream AppendEncode writes for n symbols: its
// header lists at most min(n, 2¹⁶) distinct symbols, and no code is
// longer than MaxCodeLen bits.
func MaxEncodedLen(n int) int { return 8 + 3*min(n, 1<<16) + n*MaxCodeLen/8 }

// encoder is AppendEncode's working set, pooled so that a call allocates only
// its output: the table over the stream's symbol range (up to 256 KiB),
// the distinct symbols with their frequencies, and the tree and code
// tables built from them.
type encoder struct {
	index               []uint32
	syms                []uint16
	freq                []uint64
	leaves, tmp, merged []uint64
	parent              []int32
	depth               []uint8
	codes               []codeEntry
}

var encoders = scratch.Pool[encoder]{New: func() *encoder { return new(encoder) }}

// resize returns s[:n], allocating only when s is too short; the
// contents are left as they were.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// codeLengths computes Huffman code lengths from the frequencies of
// the distinct symbols, given in ascending symbol order, then clamps
// them to MaxCodeLen. The frequencies must be positive and sum to less
// than 2⁴⁸. The lengths live in e's scratch until its next call.
//
// A node's key packs (frequency, lowest leaf index) into one uint64.
// Leaf index order is symbol order, so keys order nodes as (frequency,
// lowest symbol) does. Live nodes cover disjoint leaf sets, so no two
// keys are equal, and merging the two smallest live nodes until one is
// left builds a single tree for given frequencies.
//
// The two smallest live nodes are found among the heads of two sorted
// queues: the leaves, sorted by key, and the merged nodes in creation
// order. Merged keys rise strictly with creation:
//   - a merged node's frequency is the sum of two positive ones, so it
//     outweighs both nodes just taken, and each key taken from the
//     queues exceeds the one before;
//   - so a later merge takes two nodes no lighter than the earlier
//     two, and its sum is no smaller;
//   - equal sums need four equal frequencies, and then the earlier pair
//     holds the lower leaf.
//
// It is the order the map-keyed reference encoder in the tests
// (encodeMapRef) pops its heap in, so the tree, the lengths and the
// stream bytes match it.
func (e *encoder) codeLengths(freq []uint64) []uint8 {
	n := len(freq)
	switch n {
	case 0:
		return e.depth[:0]
	case 1:
		e.depth = resize(e.depth, 1)
		e.depth[0] = 1
		return e.depth
	}
	const idxMask = 1<<16 - 1
	e.leaves, e.tmp = resize(e.leaves, n), resize(e.tmp, n)
	for i, f := range freq {
		e.leaves[i] = f<<16 | uint64(i)
	}
	leaves := sortByFreq(e.leaves, e.tmp)
	// The tree's 2n−1 nodes are leaves 0..n−1, then merged[j] as node
	// n+j, so a parent's index always exceeds its children's.
	e.merged, e.parent = resize(e.merged, n-1), resize(e.parent, 2*n-2)
	merged, parent := e.merged[:0], e.parent
	li, mi := 0, 0
	for len(merged) < n-1 {
		var key [2]uint64
		next := int32(n + len(merged))
		for j := range key {
			if li < n && (mi == len(merged) || leaves[li] < merged[mi]) {
				key[j] = leaves[li]
				parent[leaves[li]&idxMask] = next
				li++
			} else {
				key[j] = merged[mi]
				parent[n+mi] = next
				mi++
			}
		}
		merged = append(merged, (key[0]>>16+key[1]>>16)<<16|min(key[0]&idxMask, key[1]&idxMask))
	}
	// The leaves' depths, at the front, are the code lengths.
	e.depth = resize(e.depth, 2*n-1)
	depth := e.depth
	depth[2*n-2] = 0
	for i := 2*n - 3; i >= 0; i-- {
		depth[i] = depth[parent[i]] + 1
	}
	lengths := depth[:n]
	clampLengths(lengths)
	return lengths
}

// sortByFreq sorts leaf keys given in index order by frequency,
// stably — hence by key — with an LSD radix sort over the frequency
// bytes the largest key has. tmp, as long as keys, is its second
// buffer; the sorted keys end in one of the two.
func sortByFreq(keys, tmp []uint64) []uint64 {
	var top uint64
	for _, k := range keys {
		top = max(top, k)
	}
	for shift := uint(16); top>>shift != 0; shift += 8 {
		var start [256]int
		for _, k := range keys {
			start[byte(k>>shift)]++
		}
		pos := 0
		for d, c := range start {
			start[d] = pos
			pos += c
		}
		for _, k := range keys {
			d := byte(k >> shift)
			tmp[start[d]] = k
			start[d]++
		}
		keys, tmp = tmp, keys
	}
	return keys
}

// clampLengths enforces MaxCodeLen while keeping the Kraft sum
// K = Σ 2^−l <= 1, so the lengths still form a prefix code: it clamps
// every longer code to MaxCodeLen, then repeatedly lengthens the
// shortest code — the lowest symbol among equally short ones — until
// the sum fits. K is kept exactly, in units of 2^−MaxCodeLen.
func clampLengths(lengths []uint8) {
	over := false
	for i, l := range lengths {
		if l > MaxCodeLen {
			lengths[i] = MaxCodeLen
			over = true
		}
	}
	if !over {
		return
	}
	var kraft uint64
	for _, l := range lengths {
		kraft += 1 << (MaxCodeLen - l)
	}
	for kraft > 1<<MaxCodeLen {
		best, bestLen := -1, uint8(MaxCodeLen)
		for i, l := range lengths {
			if l < bestLen {
				best, bestLen = i, l
			}
		}
		if best < 0 {
			break
		}
		kraft -= 1 << (MaxCodeLen - bestLen - 1)
		lengths[best]++
	}
}

// codeEntry is one symbol's canonical code.
type codeEntry struct {
	code uint32
	len  uint8
}

// canonical assigns canonical codes — shorter lengths first, then
// symbol order — to lengths given in ascending symbol order: it counts
// the codes of each length, derives each length's first code, and
// hands out consecutive codes within a length. It writes them into
// codes, resized.
func canonical(codes []codeEntry, lengths []uint8) []codeEntry {
	var count [MaxCodeLen + 1]uint32
	for _, l := range lengths {
		count[l]++
	}
	var next [MaxCodeLen + 1]uint32
	var code uint32
	for l := 1; l <= MaxCodeLen; l++ {
		code = (code + count[l-1]) << 1
		next[l] = code
	}
	codes = resize(codes, len(lengths))
	for i, l := range lengths {
		codes[i] = codeEntry{code: next[l], len: l}
		next[l]++
	}
	return codes
}

// AppendEncode appends symbols, compressed into a self-describing byte
// stream, to dst, growing it at most once. It panics on 2³² or more
// symbols, which the header cannot count.
func AppendEncode(dst []byte, symbols []uint16) []byte {
	if uint64(len(symbols)) > math.MaxUint32 {
		panic("huffman: more than 2^32-1 symbols")
	}
	lo, hi := uint16(math.MaxUint16), uint16(0)
	for _, s := range symbols {
		lo, hi = min(lo, s), max(hi, s)
	}
	e := encoders.Get()
	defer encoders.Put(e)
	// index[s−lo] counts symbol s, then becomes its rank among the
	// distinct symbols, which ascend.
	var index []uint32
	if len(symbols) > 0 {
		e.index = resize(e.index, int(hi-lo)+1)
		index = e.index
		clear(index)
	}
	for _, s := range symbols {
		index[s-lo]++
	}
	distinct := 0
	for _, c := range index {
		if c != 0 {
			distinct++
		}
	}
	e.syms, e.freq = resize(e.syms, distinct), resize(e.freq, distinct)
	syms, freq := e.syms[:0], e.freq[:0]
	for i, c := range index {
		if c != 0 {
			index[i] = uint32(len(syms))
			syms = append(syms, lo+uint16(i))
			freq = append(freq, uint64(c))
		}
	}
	lengths := e.codeLengths(freq)
	e.codes = canonical(e.codes, lengths)
	codes := e.codes
	var bits uint64
	for i, f := range freq {
		bits += f * uint64(lengths[i])
	}

	// header: numSymbols(u32), numDistinct(u32), then (symbol u16, len u8)*;
	// every byte of out is written below.
	hdrLen := 8 + 3*distinct
	start, n := len(dst), hdrLen+int((bits+7)/8)
	dst = slices.Grow(dst, n)[:start+n]
	out := dst[start:]
	binary.LittleEndian.PutUint32(out[0:], uint32(len(symbols)))
	binary.LittleEndian.PutUint32(out[4:], uint32(distinct))
	for i, s := range syms {
		binary.LittleEndian.PutUint16(out[8+3*i:], s)
		out[8+3*i+2] = lengths[i]
	}

	// payload: codes MSB-first, the last byte zero padded; pending bits
	// sit in the low `pending` bits of acc and leave 32 at a time.
	p := out[hdrLen:]
	var acc uint64
	var pending uint
	for _, s := range symbols {
		e := codes[index[s-lo]]
		acc = acc<<e.len | uint64(e.code)
		pending += uint(e.len)
		if pending >= 32 {
			pending -= 32
			binary.BigEndian.PutUint32(p, uint32(acc>>pending))
			p = p[4:]
		}
	}
	for ; pending >= 8; p = p[1:] {
		pending -= 8
		p[0] = byte(acc >> pending)
	}
	if pending > 0 {
		p[0] = byte(acc << (8 - pending))
	}
	return dst
}

// ErrCorrupt reports a malformed Huffman stream.
var ErrCorrupt = errors.New("huffman: corrupt stream")

// maxPeekBits caps the decoder's peek table at 2¹¹ entries (8 KiB).
const maxPeekBits = 11

// decodeTable is the dense canonical decoder state: per code length,
// the canonical code of that length's first symbol and where that
// symbol sits in the (length, symbol)-sorted symbol array. A code of
// length l decodes as syms[offset[l] + (code − firstCode[l])] whenever
// code − firstCode[l] < count[l] — the classic canonical-Huffman
// first-code/first-symbol walk. Codes of up to peekBits bits resolve
// in one lookup: peek[v] holds sym<<8 | l for the code of length l
// that prefixes the peekBits-bit value v, or 0 when none does.
type decodeTable struct {
	maxLen    int
	firstCode [MaxCodeLen + 1]uint64
	count     [MaxCodeLen + 1]int
	offset    [MaxCodeLen + 1]int
	syms      []uint16
	peekBits  int
	peek      []uint32
}

// decoders recycles DecodeInto's tables; the peek table alone is 8 KiB.
var decoders = scratch.Pool[decodeTable]{New: func() *decodeTable { return new(decodeTable) }}

// build makes t the decoder of the header's (symbol u16, length u8)
// entries, whose lengths are already validated, reusing t's storage.
// A symbol listed twice takes its last length. The symbols are ordered
// canonically — shorter lengths first, then symbol order — by a
// counting sort on length over the ascending symbols, which reproduces
// exactly the code assignment AppendEncode's canonical() makes, so every
// stream decodes (or is rejected) just as under a map keyed by
// (length, code) walked bit by bit.
func (t *decodeTable) build(entries []byte) {
	if !strictlyAscending(entries) {
		entries = dedupe(entries)
	}
	*t = decodeTable{syms: t.syms, peek: t.peek}
	for i := 2; i < len(entries); i += 3 {
		l := int(entries[i])
		t.count[l]++
		t.maxLen = max(t.maxLen, l)
	}
	var code uint64
	pos := 0
	var next [MaxCodeLen + 1]int
	for l := 1; l <= t.maxLen; l++ {
		t.firstCode[l] = code
		t.offset[l] = pos
		next[l] = pos
		pos += t.count[l]
		code = (code + uint64(t.count[l])) << 1
	}
	t.syms = resize(t.syms, pos)
	for i := 0; i < len(entries); i += 3 {
		l := entries[i+2]
		t.syms[next[l]] = binary.LittleEndian.Uint16(entries[i:])
		next[l]++
	}

	// Fill each peek slot from the code prefixing it. No two codes
	// share a prefix, even in an overfull header (Kraft sum > 1): each
	// length's first code lies past every shorter code shifted to that
	// length. An overfull header's surplus codes lie past 2^l − 1, can
	// never be read at length l, and are skipped.
	k := min(t.maxLen, maxPeekBits)
	t.peekBits = k
	t.peek = resize(t.peek, 1<<k)
	clear(t.peek)
	for l := 1; l <= k; l++ {
		shift := uint(k - l)
		for d := 0; d < t.count[l]; d++ {
			c := t.firstCode[l] + uint64(d)
			if c >= 1<<l {
				break
			}
			e := uint32(t.syms[t.offset[l]+d])<<8 | uint32(l)
			for v := c << shift; v < (c+1)<<shift; v++ {
				t.peek[v] = e
			}
		}
	}
}

// strictlyAscending reports whether the header entries list their
// symbols in strictly ascending order, as AppendEncode writes them.
func strictlyAscending(entries []byte) bool {
	for i := 3; i < len(entries); i += 3 {
		if binary.LittleEndian.Uint16(entries[i:]) <= binary.LittleEndian.Uint16(entries[i-3:]) {
			return false
		}
	}
	return true
}

// dedupe rewrites header entries in ascending symbol order with each
// symbol once, at the length of its last listing, through a table
// over the entries' symbol range.
func dedupe(entries []byte) []byte {
	lo, hi := uint16(math.MaxUint16), uint16(0)
	for i := 0; i < len(entries); i += 3 {
		s := binary.LittleEndian.Uint16(entries[i:])
		lo, hi = min(lo, s), max(hi, s)
	}
	lengths := make([]uint8, int(hi-lo)+1)
	for i := 0; i < len(entries); i += 3 {
		lengths[binary.LittleEndian.Uint16(entries[i:])-lo] = entries[i+2]
	}
	out := make([]byte, 0, len(entries))
	for i, l := range lengths {
		if l != 0 {
			out = binary.LittleEndian.AppendUint16(out, lo+uint16(i))
			out = append(out, l)
		}
	}
	return out
}

// DecodeInto reverses AppendEncode, writing the symbols into dst's
// storage, which it grows only when dst is too short. It reads the
// payload through a 64-bit window: a peek-table lookup decodes each
// short code, and the canonical walk over the longer lengths decodes
// the rest.
func DecodeInto(dst []uint16, data []byte) ([]uint16, error) {
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
	entries := data[8 : 8+3*distinct]
	for i := 2; i < len(entries); i += 3 {
		if l := entries[i]; l == 0 || l > MaxCodeLen {
			return nil, ErrCorrupt
		}
	}
	if count == 0 {
		return resize(dst, 0), nil
	}
	if distinct == 0 {
		return nil, ErrCorrupt
	}
	payload := data[8+3*distinct:]
	// Every symbol consumes at least one payload bit, so a declared
	// count beyond the payload's bit budget is provably corrupt —
	// reject it before allocating count elements (a 4-byte header
	// field could otherwise demand a multi-GB slice).
	if count > 8*len(payload) {
		return nil, ErrCorrupt
	}
	tbl := decoders.Get()
	defer decoders.Put(tbl)
	tbl.build(entries)
	peek, peekShift := tbl.peek, uint(64-tbl.peekBits)
	maxLen := uint(tbl.maxLen)
	// The top n bits of acc are the unread payload bits; below them
	// acc holds zeros past the payload's end, or further payload bits
	// (loaded ahead, and loaded again, identically, by the next refill).
	var acc uint64
	var n uint
	pos := 0
	out := resize(dst, count)
	for i := range out {
		if n < MaxCodeLen {
			if pos+8 <= len(payload) {
				acc |= binary.BigEndian.Uint64(payload[pos:]) >> n
				pos += int(63-n) >> 3
				n |= 56
			} else {
				for ; n <= 56 && pos < len(payload); pos++ {
					acc |= uint64(payload[pos]) << (56 - n)
					n += 8
				}
			}
		}
		var l uint
		if e := peek[acc>>peekShift]; e != 0 {
			out[i], l = uint16(e>>8), uint(e&0xff)
		} else {
			for l = uint(tbl.peekBits) + 1; l <= maxLen; l++ {
				c := acc >> (64 - l)
				if d := c - tbl.firstCode[l]; c >= tbl.firstCode[l] && d < uint64(tbl.count[l]) {
					out[i] = tbl.syms[tbl.offset[l]+int(d)]
					break
				}
			}
			if l > maxLen {
				return nil, ErrCorrupt
			}
		}
		// A refill leaves n < 32 only at the payload's end, so a code
		// longer than n ran past it.
		if l > n {
			return nil, fmt.Errorf("huffman: truncated payload: %w", bitstream.ErrOutOfBits)
		}
		acc <<= l
		n -= l
	}
	return out, nil
}
