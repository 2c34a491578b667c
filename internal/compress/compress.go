// Package compress defines the error-bounded lossy compressor
// interface and the measurement harness (compression ratio, maximum
// error, PSNR, bound verification) — the role Libpressio plays in the
// paper's experimental setup.
//
// FieldCompressor is the one codec interface: every codec compresses
// fields of the ranks it declares on both element lanes. The Registry
// serves lookups filtered by the rank of the field being measured.
package compress

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"lossycorr/internal/field"
)

// FieldCompressor is an error-bounded lossy compressor for dense
// fields on both element lanes. CompressField and CompressField32 must
// guarantee max|x−x̂| <= absErr for every element of any field whose
// rank the codec supports, the float32 lane over the float32 samples it
// reconstructs.
type FieldCompressor interface {
	// Name identifies the compressor in experiment output.
	Name() string
	// Ranks lists the field ranks the codec accepts (e.g. {2} or {3}).
	Ranks() []int
	// CompressField encodes f under the absolute error bound absErr.
	CompressField(f *field.Field, absErr float64) ([]byte, error)
	// DecompressField reconstructs the field from CompressField's output.
	DecompressField(data []byte) (*field.Field, error)
	// CompressField32 encodes f under the absolute error bound absErr,
	// quantizing directly from the float32 samples.
	CompressField32(f *field.Field32, absErr float64) ([]byte, error)
	// DecompressField32 reconstructs the float32 field from
	// CompressField32's output.
	DecompressField32(data []byte) (*field.Field32, error)
}

// CheckBound rejects an absolute error bound that is not finite and
// positive: NaN and +Inf pass a `<= 0` test, and a codec quantizing at
// either reconstructs garbage.
func CheckBound(absErr float64) error {
	if !(absErr > 0) || math.IsInf(absErr, 1) {
		return fmt.Errorf("error bound %v is not finite and positive", absErr)
	}
	return nil
}

// Rank is the field rank a codec value serves, 2 or 3; the zero value
// serves rank 2. A codec embeds it for its Ranks method and names
// itself with Named.
type Rank int

// N returns the rank r serves. Any rank but 2 or 3 is a programming
// error and panics, as the codecs have no other.
func (r Rank) N() int {
	switch r {
	case 0, 2:
		return 2
	case 3:
		return 3
	}
	panic(fmt.Sprintf("compress: no rank-%d codec", int(r)))
}

// Ranks lists the one rank r serves.
func (r Rank) Ranks() []int { return []int{r.N()} }

// Named returns the name a codec called base registers at rank r:
// base itself at rank 2 and base-3d at rank 3.
func (r Rank) Named(base string) string {
	if r.N() == 2 {
		return base
	}
	return fmt.Sprintf("%s-%dd", base, r.N())
}

// SupportsRank reports whether c accepts fields of the given rank.
func SupportsRank(c FieldCompressor, ndim int) bool {
	for _, r := range c.Ranks() {
		if r == ndim {
			return true
		}
	}
	return false
}

// Result reports one compression measurement. The JSON field names
// are the service layer's wire contract; PSNR can be +Inf for perfect
// reconstructions, which encoding/json cannot represent, so the
// service layer marshals results with Result's own MarshalJSON that
// clamps non-finite values.
type Result struct {
	Compressor     string  `json:"compressor"`
	ErrorBound     float64 `json:"errorBound"`
	OriginalSize   int     `json:"originalSize"`
	CompressedSize int     `json:"compressedSize"`
	Ratio          float64 `json:"ratio"` // OriginalSize / CompressedSize
	MaxAbsError    float64 `json:"maxAbsError"`
	MSE            float64 `json:"mse"`
	PSNR           float64 `json:"psnr"` // dB, relative to the field's value range
	BoundOK        bool    `json:"boundOK"`
}

// MarshalJSON encodes the result with non-finite PSNR values clamped
// to a large sentinel (±1e308) so a perfect reconstruction (+Inf dB)
// survives the trip through JSON, which has no infinity literal.
func (r Result) MarshalJSON() ([]byte, error) {
	type wire Result // drop the method to avoid recursion
	w := wire(r)
	if math.IsInf(w.PSNR, 1) {
		w.PSNR = 1e308
	} else if math.IsInf(w.PSNR, -1) {
		w.PSNR = -1e308
	} else if math.IsNaN(w.PSNR) {
		w.PSNR = 0
	}
	return json.Marshal(w)
}

// Registry holds named codecs for CLI and experiment lookup, each with
// its declared set of supported ranks; lookups can be filtered by the
// rank of the field being measured.
type Registry struct {
	fields map[string]FieldCompressor
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fields: make(map[string]FieldCompressor)}
}

// RegisterField adds a codec; registering a duplicate name is an
// error.
func (r *Registry) RegisterField(c FieldCompressor) error {
	if _, dup := r.fields[c.Name()]; dup {
		return fmt.Errorf("compress: duplicate compressor %q", c.Name())
	}
	r.fields[c.Name()] = c
	return nil
}

// GetField looks any registered codec up by name.
func (r *Registry) GetField(name string) (FieldCompressor, error) {
	c, ok := r.fields[name]
	if !ok {
		return nil, fmt.Errorf("compress: unknown compressor %q (have %v)", name, r.NamesFor(0))
	}
	return c, nil
}

// GetFor looks a codec up by name and checks it accepts fields of the
// given rank.
func (r *Registry) GetFor(name string, ndim int) (FieldCompressor, error) {
	c, err := r.GetField(name)
	if err != nil {
		return nil, err
	}
	if !SupportsRank(c, ndim) {
		return nil, fmt.Errorf("compress: %q does not accept rank-%d fields (%d-D codecs: %v)",
			name, ndim, ndim, r.NamesFor(ndim))
	}
	return c, nil
}

// NamesFor lists the codecs accepting the given rank in sorted order;
// rank 0 lists every codec.
func (r *Registry) NamesFor(ndim int) []string {
	out := make([]string, 0, len(r.fields))
	for n, c := range r.fields {
		if ndim == 0 || SupportsRank(c, ndim) {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// AllFor returns the codecs accepting the given rank in name order,
// the set MeasureFieldSet sweeps for a field of that rank.
func (r *Registry) AllFor(ndim int) []FieldCompressor {
	names := r.NamesFor(ndim)
	out := make([]FieldCompressor, 0, len(names))
	for _, n := range names {
		out = append(out, r.fields[n])
	}
	return out
}

// PaperErrorBounds are the four absolute error bounds of the study.
var PaperErrorBounds = []float64{1e-5, 1e-4, 1e-3, 1e-2}
