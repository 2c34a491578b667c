package fft

// Lockstep line transforms (see the package comment): a group holds
// lineGroup lines interleaved, element k of line j at g[lineGroup·k+j].
// The plan is walked once for the whole group; the radix-2² passes, the
// leaf's gather and first pass, and the radix-3 combine run in
// assembly (lockstep_amd64.s), the radix-5 combine in Go (combine).
// Each line gets exactly the products and sums of the per-line path
// (transformWith), each rounded and in the same order, which
// TestLockstepLinesMatchPerLine pins bit for bit.

// transformGroup sets dst to the unnormalized DFT (or unnormalized
// inverse DFT) of each of the lineGroup lines interleaved in src. Both
// hold lineGroup·p.n elements; src is only read.
func (p *linePlan) transformGroup(dst, src []complex128, inverse bool) {
	if p.kind == planPow2 {
		leafGroup(dst, src, p.n, 1, p.w.dir(inverse))
		return
	}
	p.mixedRec(dst, src, p.n, 1, 1, lineGroup, p.factors, p.w.dir(inverse), p.pw.dir(inverse))
}

// leafGroup is leaf over a group: dst's lines are the power-of-two DFTs
// of the group's rows 0, stride, 2·stride, … of src. For a
// power-of-two plan (stride 1) this is transformTw's arithmetic too:
// its bit-reversal, lone radix-2 stage and first radix-2² pass are the
// gather's.
func leafGroup(dst, src []complex128, n, stride int, pw []complex128) {
	dst = dst[:lineGroup*n]
	_ = src[lineGroup*((n-1)*stride+1)-1]
	if n == 1 {
		copy(dst, src[:lineGroup])
		return
	}
	_ = pw[n/2-1]
	h := 4
	if oddStages(n) {
		leafPairsx4(&dst[0], &src[0], n, stride, &pw[0])
		h = 2
	} else {
		leafQuadsx4(&dst[0], &src[0], n, stride, &pw[0])
	}
	for ; 4*h <= n; h *= 4 {
		radix22x4(&dst[0], &pw[0], n, h, n/(4*h))
	}
}

// combine3Group is combine3 over a group.
func combine3Group(dst []complex128, m, mult int, w []complex128, roots *[25]complex128) {
	_ = dst[lineGroup*3*m-1]
	_ = w[2*mult*(m-1)]
	combine3x4(&dst[0], m, mult, &w[0], roots)
}
