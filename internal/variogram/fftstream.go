package variogram

// Sharded spectral engine: the spectral variogram of fftscan.go, run
// slab-by-slab along axis 0 so the padded planes fit a memory budget.
// The in-RAM engine's closed forms need a field-sized summed-area
// table, which would break the budget, so each slab keeps the masked
// correlation form instead.
//
// Canonical offsets (first nonzero component positive) always have
// h₀ ≥ 0, so partitioning pairs by the axis-0 coordinate of the BASE
// point partitions the direct scan's pair set exactly: slab s owns the
// base points with x₀ ∈ [z₀, z₁), and every partner x+h then lies in
// the extended region [z₀, z₂), z₂ = min(z₁+L, n₀). With asymmetric
// indicator masks — a-functions supported on the base region,
// b-functions on the extended region —
//
//	S_s(h) = c_{w_a,m_b}(h) + c_{m_a,w_b}(h) − 2·c_{z_a,z_b}(h)
//	N_s(h) = c_{m_a,m_b}(h)
//
// and summing over slabs reproduces the full-field sums: pair counts
// are EXACTLY the direct scan's (each base point is in exactly one
// slab), Gamma agrees to roundoff (the equivalence test pins 1e-9).
// Cross-correlations come from conj(A)·B spectra; padding axis 0 to
// FastLen(B+L) (h₀ ∈ [0,L] never wraps a (B+L)-support signal) and the
// other axes to FastLen(n_k+L) exactly as in the full-field engine.
//
// Every block is shifted by one reference value, the field's first
// element, as it is read. S(h) is shift-invariant and the mask terms
// do not see values, so counts stay exact; without the shift a large
// DC offset dominates the spectra and cancels in S, which cost ~1e-3
// relative at an offset of 1e7 on a unit-variance field.
//
// The slab loop is serial and each slab's bin fold runs on the worker
// pool with whole-bin ownership, so results are independent of the
// worker count. Peak live bytes per slab: one extended block read, at
// most two padded real planes, and at most four half-spectra — the
// shard size B is the largest making that bound fit half the budget
// (headroom for transform-pool bucket slack, see fft pool accounting).

import (
	"context"
	"fmt"
	"math"

	"lossycorr/internal/fft"
	"lossycorr/internal/field"
	"lossycorr/internal/parallel"
)

// shardBytes bounds the peak live pool bytes of one slab pass with
// base extent b: block read + two padded real planes + four
// half-spectra.
func shardBytes(b int, dims []int, nb int) int64 {
	rest := int64(1)
	for _, d := range dims[1:] {
		rest *= int64(d)
	}
	ext := b + nb
	if ext > dims[0] {
		ext = dims[0]
	}
	pad := make([]int, len(dims))
	pad[0] = padLenFn(ext + nb)
	total := int64(pad[0])
	for k := 1; k < len(dims); k++ {
		pad[k] = padLenFn(dims[k] + nb)
		total *= int64(pad[k])
	}
	return 8*int64(ext)*rest + 2*8*total + 4*16*int64(fft.HalfLen(pad))
}

// fftShardSize picks the largest axis-0 base extent whose slab pass
// fits half of budgetBytes (<= 0 means unbounded: one slab).
func fftShardSize(dims []int, nb int, budgetBytes int64) (int, error) {
	n0 := dims[0]
	if budgetBytes <= 0 {
		return n0, nil
	}
	half := budgetBytes / 2
	if shardBytes(1, dims, nb) > half {
		return 0, fmt.Errorf("variogram: memory budget %d too small for a spectral shard of shape %v (lag %d)",
			budgetBytes, dims, nb)
	}
	b := 1
	for b < n0 && shardBytes(b+1, dims, nb) <= half {
		b++
	}
	return b, nil
}

// fftScanReader is the out-of-core spectral variogram, evaluated in
// axis-0 slabs sized by the byte budget.
func fftScanReader(ctx context.Context, tr *field.TileReader, o Options, so field.StreamOptions) (*Empirical, error) {
	stage := func() error {
		if ctx == nil {
			return nil
		}
		return ctx.Err()
	}
	dims := tr.Shape()
	nd := len(dims)
	if nd < 1 {
		return nil, fmt.Errorf("variogram: rank-0 field")
	}
	nb := o.MaxLag
	shard, err := fftShardSize(dims, nb, so.BudgetBytes)
	if err != nil {
		return nil, err
	}
	ref, err := tr.At(0)
	if err != nil {
		return nil, err
	}
	rest := 1
	for _, d := range dims[1:] {
		rest *= d
	}
	bins := offsetsByBinCached(nd, nb)
	sum := make([]float64, nb+1)
	cnt := make([]int64, nb+1)

	for z0 := 0; z0 < dims[0]; z0 += shard {
		z1 := z0 + shard
		if z1 > dims[0] {
			z1 = dims[0]
		}
		z2 := z1 + nb
		if z2 > dims[0] {
			z2 = dims[0]
		}
		baseDims := append([]int{z1 - z0}, dims[1:]...)
		extDims := append([]int{z2 - z0}, dims[1:]...)
		pad := make([]int, nd)
		pad[0] = padLenFn(extDims[0] + nb)
		total := 1
		for k := 1; k < nd; k++ {
			pad[k] = padLenFn(dims[k] + nb)
		}
		for _, p := range pad {
			total *= p
		}
		half := fft.HalfLen(pad)
		if err := func() error { // one slab; defers release pooled buffers
			blo := make([]int, nd)
			blo[0] = z0
			bhi := append([]int{z2}, dims[1:]...)
			blkBuf := fft.AcquireTight[float64]((z2 - z0) * rest)
			blkDone := false
			releaseBlk := func() {
				if !blkDone {
					fft.Release(blkBuf)
					blkDone = true
				}
			}
			defer releaseBlk()
			blk := &field.Field{Data: blkBuf}
			if err := tr.ReadBlock(blk, blo, bhi); err != nil {
				return err
			}
			for i := range blk.Data {
				blk.Data[i] -= ref
			}
			r := fft.AcquireTight[float64](total)
			defer fft.Release(r)
			// Base-region z: the base block is a prefix of the extended
			// block (axis 0 is slowest).
			baseLen := (z1 - z0) * rest
			if err := fft.EmbedReal(r, pad, blk.Data[:baseLen], baseDims); err != nil {
				return err
			}
			if err := stage(); err != nil {
				return err
			}
			spZa := fft.AcquireTight[complex128](half)
			defer func() { fft.Release(spZa) }()
			if err := fft.ForwardRealND(r, pad, spZa, o.Workers); err != nil {
				return err
			}
			for i, v := range r { // w_a = z²·m_a: zero padding stays zero
				r[i] = v * v
			}
			spWa := fft.AcquireTight[complex128](half)
			defer func() { fft.Release(spWa) }()
			if err := fft.ForwardRealND(r, pad, spWa, o.Workers); err != nil {
				return err
			}
			for i := range r {
				r[i] = 0
			}
			if err := fft.ForEachEmbeddedRow(baseDims, pad, func(_, dstOff, n int) {
				for i := dstOff; i < dstOff+n; i++ {
					r[i] = 1
				}
			}); err != nil {
				return err
			}
			if err := stage(); err != nil {
				return err
			}
			spMa := fft.AcquireTight[complex128](half)
			defer func() { fft.Release(spMa) }()
			if err := fft.ForwardRealND(r, pad, spMa, o.Workers); err != nil {
				return err
			}
			// Extended-region z; the block is spent after this embed.
			if err := fft.EmbedReal(r, pad, blk.Data, extDims); err != nil {
				return err
			}
			releaseBlk()
			if err := stage(); err != nil {
				return err
			}
			spZb := fft.AcquireTight[complex128](half)
			if err := fft.ForwardRealND(r, pad, spZb, o.Workers); err != nil {
				fft.Release(spZb)
				return err
			}
			// accS = −2·conj(Z_a)·Z_b, accumulated in spZa.
			fft.MulConjScale(spZa, spZb, -2)
			fft.Release(spZb)
			accS := spZa
			for i, v := range r { // w_b = z²·m_b
				r[i] = v * v
			}
			if err := stage(); err != nil {
				return err
			}
			spWb := fft.AcquireTight[complex128](half)
			if err := fft.ForwardRealND(r, pad, spWb, o.Workers); err != nil {
				fft.Release(spWb)
				return err
			}
			fft.AddMulConjScale(accS, spMa, spWb, 1) // + conj(M_a)·W_b
			fft.Release(spWb)
			for i := range r {
				r[i] = 0
			}
			if err := fft.ForEachEmbeddedRow(extDims, pad, func(_, dstOff, n int) {
				for i := dstOff; i < dstOff+n; i++ {
					r[i] = 1
				}
			}); err != nil {
				return err
			}
			if err := stage(); err != nil {
				return err
			}
			spMb := fft.AcquireTight[complex128](half)
			if err := fft.ForwardRealND(r, pad, spMb, o.Workers); err != nil {
				fft.Release(spMb)
				return err
			}
			fft.AddMulConjScale(accS, spWa, spMb, 1) // + conj(W_a)·M_b
			fft.MulConj(spMa, spMb)                  // accN = conj(M_a)·M_b
			fft.Release(spMb)
			if err := stage(); err != nil {
				return err
			}
			// S plane into the staging buffer, count plane into a second.
			if err := fft.InverseRealND(accS, pad, r, o.Workers); err != nil {
				return err
			}
			cn := fft.AcquireTight[float64](total)
			defer fft.Release(cn)
			if err := fft.InverseRealND(spMa, pad, cn, o.Workers); err != nil {
				return err
			}
			// Fold this slab's per-offset correlations into the global
			// bins: canonical offset order within a bin, fixed slab order
			// across slabs, whole-bin worker ownership — deterministic at
			// any worker count.
			pStride := make([]int, nd)
			acc := 1
			for k := nd - 1; k >= 0; k-- {
				pStride[k] = acc
				acc *= pad[k]
			}
			return parallel.ForCtx(ctx, nb+1, o.Workers, func(b int) {
				offs := bins[b]
				var s float64
				var c int64
				for p := 0; p < len(offs); p += nd {
					idx := 0
					for k := 0; k < nd; k++ {
						h := int(offs[p+k])
						if h >= 0 { // k == 0 always lands here: h₀ ≥ 0
							idx += h * pStride[k]
						} else {
							idx += (pad[k] + h) * pStride[k]
						}
					}
					n := int64(math.Round(cn[idx]))
					if n <= 0 {
						continue
					}
					d := r[idx]
					if d < 0 { // roundoff on (near-)constant fields
						d = 0
					}
					s += d
					c += n
				}
				sum[b] += s
				cnt[b] += c
			})
		}(); err != nil {
			return nil, err
		}
	}
	return collect(sum, cnt), nil
}
