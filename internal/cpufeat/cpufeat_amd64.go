package cpufeat

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

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
