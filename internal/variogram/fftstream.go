package variogram

// Sharded spectral engine: the spectral variogram of fftscan.go, run
// slab-by-slab along axis 0 so the padded planes fit a memory budget.
// Every slab goes through the in-RAM engine's kernel, fftSlab.
//
// Canonical offsets (first nonzero component positive) always have
// h₀ ≥ 0, so partitioning pairs by the axis-0 coordinate of the BASE
// point partitions the direct scan's pair set exactly: slab s owns the
// base points with x₀ ∈ [z₀, z₁), and every partner x+h then lies in
// the block [z₀, z₂), z₂ = min(z₁+L, n₀). The block is read whole, so
// its own summed-area table gives the box sums and pair counts keep
// their closed form: counts are EXACTLY the direct scan's, Gamma
// agrees to roundoff (the equivalence test pins 1e-9).
//
// Every block is shifted by the field's first element, not the mean,
// so no extra pass over the file is needed: the first slab's block
// starts at it. Either keeps a large DC offset out of the spectra,
// where it would cancel in S(h) and take the low bits of Gamma with it.
//
// Slabs run in a fixed serial order and each fold is one serial sweep,
// so results are independent of the worker count. A slab's peak
// is the block plus the kernel's working set (shardBytes); the shard
// extent is the largest that fits the budget's fft.TightShare.

import (
	"context"
	"fmt"

	"lossycorr/internal/fft"
	"lossycorr/internal/field"
)

// shardBytes bounds the peak live pool bytes of one slab pass with
// base extent b: the float64 block read plus fftSlab's working set on
// it.
func shardBytes(b int, dims []int, nb int) int64 {
	ext := append([]int{min(b+nb, dims[0])}, dims[1:]...)
	block := int64(8)
	for _, d := range ext {
		block *= int64(d)
	}
	return block + slabPeakBytes(ext, b, nb)
}

// fftShardSize picks the largest axis-0 base extent whose slab pass
// fits fft.TightShare of budgetBytes (<= 0 means unbounded: one slab).
// One slab needs one spectrum and a split needs two, so a single slab
// can fit where a slightly smaller split does not: it is tried first.
// Below n₀ the bound grows with the extent.
func fftShardSize(dims []int, nb int, budgetBytes int64) (int, error) {
	n0 := dims[0]
	share := fft.TightShare(budgetBytes)
	if budgetBytes <= 0 || shardBytes(n0, dims, nb) <= share {
		return n0, nil
	}
	shard := 0
	for shard+1 < n0 && shardBytes(shard+1, dims, nb) <= share {
		shard++
	}
	if shard == 0 {
		return 0, fmt.Errorf("variogram: memory budget %d too small for a spectral shard of shape %v (lag %d)",
			budgetBytes, dims, nb)
	}
	return shard, nil
}

// fftScanReader is the out-of-core spectral variogram, evaluated in
// axis-0 slabs sized by the byte budget.
func fftScanReader(ctx context.Context, tr *field.TileReader, o Options, so field.StreamOptions) (*Empirical, error) {
	dims := tr.Shape()
	nb := o.MaxLag
	shard, err := fftShardSize(dims, nb, so.BudgetBytes)
	if err != nil {
		return nil, err
	}
	rest := tr.Len() / dims[0]
	var ref float64 // element 0, read with the first slab
	sum := make([]float64, nb+1)
	cnt := make([]int64, nb+1)
	for z0 := 0; z0 < dims[0]; z0 += shard {
		z1 := min(z0+shard, dims[0])
		z2 := min(z1+nb, dims[0])
		if err := func() error { // one slab; the defer releases the block
			buf := fft.AcquireTight[float64]((z2 - z0) * rest)
			defer fft.Release(buf)
			blk := &field.Field{Data: buf}
			lo := make([]int, len(dims))
			lo[0] = z0
			hi := append([]int{z2}, dims[1:]...)
			if err := tr.ReadBlock(blk, lo, hi); err != nil {
				return err
			}
			if z0 == 0 {
				ref = blk.Data[0]
			}
			return fftSlab(ctx, blk.Data, blk.Shape, z1-z0, ref, o, sum, cnt)
		}(); err != nil {
			return nil, err
		}
	}
	return collect(sum, cnt), nil
}
