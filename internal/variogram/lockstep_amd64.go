package variogram

// useAVX2 reports whether the CPU and the operating system support
// AVX2, and so whether the lockstep scan runs laneRow2. The lockstep
// tests clear it to run the Go laneRow path as well.
var useAVX2 = hasAVX2()

// hasAVX2 reads the CPU's feature flags: AVX and OSXSAVE (leaf 1 ECX
// bits 28 and 27), the XMM and YMM state enabled in XCR0 (bits 1 and
// 2), and AVX2 (leaf 7 EBX bit 5).
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(1<<28) == 0 || ecx1&(1<<27) == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// laneRow2 is laneRow over two lane groups at once: for each of the n
// elements it folds (x − y)² of group 0's pair (x0[i], y0[i]) into
// s[0:4] and group 1's pair (x1[i], y1[i]) into s[4:8], lane by lane.
// Each lane does one subtract, one rounded multiply and one add per
// pair, in index order, so every lane's chain is bitwise laneRow's.
// It needs AVX2 (useAVX2).
//
//go:noescape
func laneRow2(x0, y0, x1, y1 *[4]float64, n int, s *[8]float64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
