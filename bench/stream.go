package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"lossycorr/internal/core"
	"lossycorr/internal/fft"
	"lossycorr/internal/field"
	"lossycorr/internal/gaussian"
	"lossycorr/internal/stat"
	"lossycorr/internal/xrand"
)

// streamLoad analyzes float32 volumes out of core: each op hands
// core.AnalyzeReaderCtx a tile reader with half the payload as memory
// budget, which forces the tile path.
type streamLoad struct {
	clients int
	raws    [][]byte // the volume files
	opts    core.AnalysisOptions
	rd      [][]volumeReaders // per client, per volume
}

// volumeReaders are one client's two readers of one volume file, so a
// traced op's read counts are its own.
type volumeReaders struct {
	plain   *field.TileReader // reads the file directly
	counted *field.TileReader // reads it through counts
	counts  *countingReaderAt
}

func prepareStream3D(seed uint64, sz sizes, clients int) (load, error) {
	rng := xrand.New(rootSeed(seed))
	l := &streamLoad{clients: clients}
	for k := 0; k < sz.volumes; k++ {
		e := sz.volEdge
		v, err := gaussian.Generate3D(gaussian.Params3D{Nz: e, Ny: e, Nx: e, Range: float64(2 + 2*k), Seed: rng.Uint64()})
		if err != nil {
			return nil, err
		}
		l.raws = append(l.raws, encode32(field.FromVolume(v).Narrow()))
	}
	payload := int64(sz.volEdge*sz.volEdge*sz.volEdge) * 4
	l.opts = core.AnalysisOptions{Window: sz.volWindow, MemBudget: payload / 2}
	return l, nil
}

// volume is the volume op (c, i) analyzes; the clients start on
// different volumes.
func (l *streamLoad) volume(c, i int) int { return (i + c) % len(l.raws) }

func (l *streamLoad) setUp() error {
	l.rd = make([][]volumeReaders, l.clients)
	for c := range l.rd {
		for _, raw := range l.raws {
			plain, err := field.NewTileReader(bytes.NewReader(raw), int64(len(raw)), len(raw))
			if err != nil {
				return err
			}
			counts := &countingReaderAt{r: bytes.NewReader(raw)}
			counted, err := field.NewTileReader(counts, int64(len(raw)), len(raw))
			if err != nil {
				return err
			}
			l.rd[c] = append(l.rd[c], volumeReaders{plain, counted, counts})
		}
	}
	return l.op(0, 0, false).err
}

func (l *streamLoad) tearDown() {}

func (l *streamLoad) op(c, i int, traced bool) outcome {
	o := outcome{c: c, i: i}
	rd := l.rd[c][l.volume(c, i)]
	tr := rd.plain
	if traced {
		tr = rd.counted
	}
	before := rd.counts.snapshot()
	fft.ResetPeakBytes()
	o.start = time.Now()
	stats, err := core.AnalyzeReaderCtx(context.Background(), tr, l.opts)
	o.latency = time.Since(o.start)
	o.poolPeak = fft.PeakBytes()
	o.reads = rd.counts.snapshot().sub(before)
	if err != nil {
		o.err = err
		return o
	}
	o.stats = stats
	o.err = checkStats(stats, outputKeys(selectedKernels(l.opts)))
	return o
}

// replay runs each kernel alone through the counting reader, as the
// traced op did.
func (l *streamLoad) replay(t *tracer, root, opID int, o outcome) error {
	src := stat.Source{
		Reader: l.rd[o.c][l.volume(o.c, o.i)].counted,
		Stream: field.StreamOptions{BudgetBytes: l.opts.MemBudget},
	}
	for _, k := range selectedKernels(l.opts) {
		if err := t.do(root, opID, "stat."+k.Name(), func() error {
			return runKernel(src, k, l.opts)
		}); err != nil {
			return err
		}
	}
	return nil
}

// verify compares the streamed statistics with the in-RAM analysis of
// the same volume.
func (l *streamLoad) verify(o outcome) error {
	raw := l.raws[l.volume(o.c, o.i)]
	_, f32, err := field.ReadAnyLimit(bytes.NewReader(raw), len(raw))
	if err != nil {
		return err
	}
	inRAM := l.opts
	inRAM.MemBudget = 0
	want, err := core.AnalyzeField32Ctx(context.Background(), f32, inRAM)
	if err != nil {
		return err
	}
	if !want.Equal(o.stats) {
		return fmt.Errorf("op (%d,%d): streamed analysis gives %v, in-RAM %v", o.c, o.i, o.stats, want)
	}
	return nil
}

func (l *streamLoad) layers(ops []outcome) (map[string]float64, error) {
	var reads, points, mb, rms []float64
	for _, o := range ops {
		if o.err != nil || o.reads == (readCounts{}) {
			continue // untraced ops read through the plain reader
		}
		reads = append(reads, float64(o.reads.blocks))
		points = append(points, float64(o.reads.points))
		mb = append(mb, float64(o.reads.bytes)/1e6)
		rms = append(rms, float64(o.reads.nanos)/1e6)
	}
	return map[string]float64{
		"stream.tile_reads":   median(reads),
		"stream.point_reads":  median(points),
		"stream.tile_read_MB": median(mb),
		"stream.tile_read_ms": median(rms),
	}, nil
}

func (l *streamLoad) cycle() int { return len(l.raws) }

func (l *streamLoad) inputDigest(c, i int) [32]byte { return sha256.Sum256(l.raws[l.volume(c, i)]) }

// countingReaderAt counts the reads a TileReader makes. Reads of at most
// eight bytes are point reads (TileReader.At, the sampled variogram's
// access path) and are only counted; block reads are also sized and
// timed.
type countingReaderAt struct {
	r                            io.ReaderAt
	blocks, points, bytes, nanos atomic.Int64
}

type readCounts struct{ blocks, points, bytes, nanos int64 }

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if len(p) <= 8 {
		c.points.Add(1)
		return c.r.ReadAt(p, off)
	}
	start := time.Now()
	n, err := c.r.ReadAt(p, off)
	c.nanos.Add(int64(time.Since(start)))
	c.blocks.Add(1)
	c.bytes.Add(int64(n))
	return n, err
}

func (c *countingReaderAt) snapshot() readCounts {
	return readCounts{c.blocks.Load(), c.points.Load(), c.bytes.Load(), c.nanos.Load()}
}

func (a readCounts) sub(b readCounts) readCounts {
	return readCounts{a.blocks - b.blocks, a.points - b.points, a.bytes - b.bytes, a.nanos - b.nanos}
}
