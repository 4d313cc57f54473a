package sz3

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"pedal/internal/fastlz"
	"pedal/internal/flate"
	"pedal/internal/lz4"
)

// Container layout:
//
//	"SZ3G" | version byte | backend byte | backend-compressed payload
//
// Payload layout (all integers varint unless noted):
//
//	dtype byte | errorBound float64 LE | ndims | dims...
//	blockFlagCount | packed flag bits
//	modelCount | models (4 × float32 LE each)
//	codes section (see encodeCodes)
//	exactCount | exact values (dtype-sized LE each)
const (
	containerVersion = 1
)

var magic = [4]byte{'S', 'Z', '3', 'G'}

// floats reuses the float64 working arrays, as *[]float64: the widened
// copy of a float32 input, and the reconstruction a compress or a
// float32 decompress works on. Every element the kernels read they wrote
// first (the stencils reach only elements earlier in block raster
// order), so a reused array needs no clearing.
var floats sync.Pool

// getFloats draws a working array from floats; resize sets its length.
func getFloats() *[]float64 {
	if p, ok := floats.Get().(*[]float64); ok {
		return p
	}
	return new([]float64)
}

// resize sets *p to n elements, reallocating when its capacity is short,
// and returns it.
func resize(p *[]float64, n int) []float64 {
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	*p = (*p)[:n]
	return *p
}

// CompressFloat64 compresses a float64 array under cfg.
func CompressFloat64(data []float64, cfg Config) ([]byte, error) {
	cfg, err := cfg.withDefaults(len(data))
	if err != nil {
		return nil, err
	}
	return compress(data, Float64, cfg)
}

// CompressFloat32 compresses a float32 array under cfg.
func CompressFloat32(data []float32, cfg Config) ([]byte, error) {
	cfg, err := cfg.withDefaults(len(data))
	if err != nil {
		return nil, err
	}
	wide := getFloats()
	defer floats.Put(wide)
	vals := resize(wide, len(data))
	for i, v := range data {
		vals[i] = float64(v)
	}
	return compress(vals, Float32, cfg)
}

// DecompressFloat64 decompresses a stream produced by CompressFloat64.
func DecompressFloat64(comp []byte) ([]float64, Config, error) {
	vals, dt, cfg, err := decompress(comp, nil)
	if err != nil {
		return nil, cfg, err
	}
	if dt != Float64 {
		return nil, cfg, fmt.Errorf("%w: stream holds %v, not float64", ErrCorrupt, dt)
	}
	return vals, cfg, nil
}

// DecompressFloat32 decompresses a stream produced by CompressFloat32.
func DecompressFloat32(comp []byte) ([]float32, Config, error) {
	recon := getFloats()
	defer floats.Put(recon)
	vals, dt, cfg, err := decompress(comp, recon)
	if err != nil {
		return nil, cfg, err
	}
	if dt != Float32 {
		return nil, cfg, fmt.Errorf("%w: stream holds %v, not float32", ErrCorrupt, dt)
	}
	out := make([]float32, len(vals))
	for i, v := range vals {
		out[i] = float32(v)
	}
	return out, cfg, nil
}

// blockIter walks the array block by block in raster order, invoking fn
// with the block's bounds (inclusive start, exclusive end per dimension).
func blockIter(dims []int, edge int, fn func(lo, hi []int)) {
	nd := len(dims)
	lo := make([]int, nd)
	hi := make([]int, nd)
	var walk func(d int)
	walk = func(d int) {
		if d == nd {
			fn(lo, hi)
			return
		}
		for s := 0; s < dims[d]; s += edge {
			e := s + edge
			if e > dims[d] {
				e = dims[d]
			}
			lo[d], hi[d] = s, e
			walk(d + 1)
		}
	}
	walk(0)
}

// elemIter walks the elements of one block in raster order, yielding the
// global row-major index and block-local coordinates.
func elemIter(strides []int, lo, hi []int, fn func(idx int, local []int)) {
	nd := len(lo)
	local := make([]int, nd)
	cur := make([]int, nd)
	copy(cur, lo)
	for {
		idx := 0
		for d := 0; d < nd; d++ {
			idx += cur[d] * strides[d]
			local[d] = cur[d] - lo[d]
		}
		fn(idx, local)
		// Increment odometer.
		d := nd - 1
		for ; d >= 0; d-- {
			cur[d]++
			if cur[d] < hi[d] {
				break
			}
			cur[d] = lo[d]
		}
		if d < 0 {
			return
		}
	}
}

var (
	errTruncatedCodes = fmt.Errorf("%w: fewer codes than elements", ErrCorrupt)
	errTruncatedExact = fmt.Errorf("%w: missing exact value", ErrCorrupt)
)

// effectiveBound resolves the absolute error bound, scaling by the data
// range in Relative mode.
func effectiveBound(vals []float64, cfg Config) float64 {
	if cfg.Mode != BoundRelative {
		return cfg.ErrorBound
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	r := hi - lo
	if !(r > 0) || math.IsInf(r, 0) {
		return cfg.ErrorBound
	}
	return cfg.ErrorBound * r
}

func compress(vals []float64, dt DataType, cfg Config) ([]byte, error) {
	n := len(vals)
	eb := effectiveBound(vals, cfg)
	q := newQuantizer(eb)
	round32 := dt == Float32
	lz := newLorenzo(cfg.Dims)
	edge := blockEdge(len(cfg.Dims))

	var flags []bool
	var models []regressionModel

	if cfg.Predictor == PredictorInterpolation {
		codes, exact := compressInterpND(vals, cfg.Dims, q, round32)
		return assemblePayload(cfg, dt, eb, flags, models, codes, exact)
	}

	// The per-block quantization runs through the slab kernels
	// (slab.go): nested raster loops with the global-edge stencil
	// guards hoisted out of the interior and the quantizer inlined.
	recon := getFloats()
	defer floats.Put(recon)
	qs := &quantSlab{
		eb:      eb,
		twoEB:   q.twoEB,
		round32: round32,
		vals:    vals,
		recon:   resize(recon, n),
		codes:   make([]uint16, 0, n),
		strides: lz.strides,
		dims:    cfg.Dims,
	}
	blockIter(cfg.Dims, edge, func(lo, hi []int) {
		useReg := false
		var model regressionModel
		switch cfg.Predictor {
		case PredictorRegression:
			useReg = true
			model = fitBlock(vals, lz.strides, lo, hi)
		case PredictorAuto:
			useReg, model = chooseBlock(vals, lz.strides, cfg.Dims, lo, hi)
		}
		flags = append(flags, useReg)
		if useReg {
			models = append(models, model)
			qs.regressionBlock(lo, hi, model)
		} else {
			qs.lorenzoBlock(lo, hi)
		}
	})

	return assemblePayload(cfg, dt, eb, flags, models, qs.codes, qs.exact)
}

// assemblePayload serialises the pipeline outputs and applies the
// lossless backend. eb is the resolved absolute bound (equal to
// cfg.ErrorBound except in Relative mode).
func assemblePayload(cfg Config, dt DataType, eb float64, flags []bool, models []regressionModel, codes []uint16, exact []float64) ([]byte, error) {
	payload := make([]byte, 0, len(codes)/2+64)
	payload = append(payload, byte(dt))
	payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(eb))
	payload = binary.AppendUvarint(payload, uint64(len(cfg.Dims)))
	for _, d := range cfg.Dims {
		payload = binary.AppendUvarint(payload, uint64(d))
	}
	payload = append(payload, byte(cfg.Predictor))
	// Block flags.
	payload = binary.AppendUvarint(payload, uint64(len(flags)))
	payload = appendPackedBits(payload, flags)
	// Models.
	payload = binary.AppendUvarint(payload, uint64(len(models)))
	for _, m := range models {
		for _, c := range m.coef {
			payload = binary.LittleEndian.AppendUint32(payload, math.Float32bits(c))
		}
	}
	// Codes.
	enc, err := encodeCodes(codes)
	if err != nil {
		return nil, err
	}
	payload = append(payload, enc...)
	// Exact values.
	payload = binary.AppendUvarint(payload, uint64(len(exact)))
	for _, v := range exact {
		if dt == Float32 {
			payload = binary.LittleEndian.AppendUint32(payload, math.Float32bits(float32(v)))
		} else {
			payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(v))
		}
	}

	// Backend-compress the payload.
	var wrapped []byte
	switch cfg.Backend {
	case BackendFastLZ:
		wrapped = fastlz.Compress(payload)
	case BackendDeflate:
		wrapped = flate.Compress(payload, flate.DefaultLevel)
	case BackendLZ4:
		wrapped = lz4.Compress(payload)
	case BackendNone:
		wrapped = payload
	}
	return BuildContainer(cfg.Backend, wrapped), nil
}

// chooseRegression implements the Auto predictor's per-block decision: fit
// a regression model, estimate both predictors' absolute error on the
// original values, and pick the smaller (SZ3's hybrid heuristic).
func chooseRegression(vals []float64, lz *lorenzo, lo, hi []int, blockN int) (bool, regressionModel) {
	model := fitRegression(len(lo), blockN, func(yield func([]int, float64)) {
		elemIter(lz.strides, lo, hi, func(idx int, local []int) {
			yield(local, vals[idx])
		})
	})
	var regErr, lorErr float64
	coordBuf := make([]int, len(lo))
	elemIter(lz.strides, lo, hi, func(idx int, local []int) {
		regErr += math.Abs(vals[idx] - model.eval(local))
		lz.coords(idx, coordBuf)
		// Lorenzo estimate uses original values as a stand-in for the
		// reconstruction (cheap and close under a tight bound).
		lorErr += math.Abs(vals[idx] - lz.predict(vals, idx, coordBuf))
	})
	return regErr < lorErr, model
}

func appendPackedBits(dst []byte, bits []bool) []byte {
	var cur byte
	for i, b := range bits {
		if b {
			cur |= 1 << uint(i%8)
		}
		if i%8 == 7 {
			dst = append(dst, cur)
			cur = 0
		}
	}
	if len(bits)%8 != 0 {
		dst = append(dst, cur)
	}
	return dst
}

// decompress decodes comp. The reconstruction is built in *pooled when
// that is non-nil, for a caller that copies the values out before it
// returns the array to floats; nil allocates one the caller may keep.
func decompress(comp []byte, pooled *[]float64) ([]float64, DataType, Config, error) {
	var cfg Config
	if len(comp) < 6 || comp[0] != magic[0] || comp[1] != magic[1] || comp[2] != magic[2] || comp[3] != magic[3] {
		return nil, 0, cfg, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if comp[4] != containerVersion {
		return nil, 0, cfg, fmt.Errorf("%w: version %d", ErrCorrupt, comp[4])
	}
	backend := BackendKind(comp[5])
	body := comp[6:]
	var payload []byte
	var err error
	const maxPayload = 1<<31 - 1
	switch backend {
	case BackendFastLZ:
		payload, err = fastlz.Decompress(body, maxPayload)
	case BackendDeflate:
		payload, err = flate.DecompressLimit(body, maxPayload)
	case BackendLZ4:
		payload, err = lz4.DecompressLimit(body, maxPayload)
	case BackendNone:
		payload = body
	default:
		return nil, 0, cfg, fmt.Errorf("%w: backend %d", ErrCorrupt, backend)
	}
	if err != nil {
		return nil, 0, cfg, fmt.Errorf("%w: backend: %v", ErrCorrupt, err)
	}
	cfg.Backend = backend

	pos := 0
	need := func(k int) error {
		if pos+k > len(payload) {
			return fmt.Errorf("%w: truncated payload", ErrCorrupt)
		}
		return nil
	}
	if err := need(9); err != nil {
		return nil, 0, cfg, err
	}
	dt := DataType(payload[pos])
	pos++
	if dt != Float32 && dt != Float64 {
		return nil, 0, cfg, fmt.Errorf("%w: dtype %d", ErrCorrupt, dt)
	}
	cfg.ErrorBound = math.Float64frombits(binary.LittleEndian.Uint64(payload[pos:]))
	pos += 8
	if !(cfg.ErrorBound > 0) || math.IsInf(cfg.ErrorBound, 0) {
		return nil, 0, cfg, fmt.Errorf("%w: error bound %g", ErrCorrupt, cfg.ErrorBound)
	}
	ndims, n := binary.Uvarint(payload[pos:])
	if n <= 0 || ndims == 0 || ndims > 3 {
		return nil, 0, cfg, fmt.Errorf("%w: ndims", ErrCorrupt)
	}
	pos += n
	total := 1
	cfg.Dims = make([]int, ndims)
	for d := range cfg.Dims {
		v, n := binary.Uvarint(payload[pos:])
		if n <= 0 || v == 0 || v > 1<<31 {
			return nil, 0, cfg, fmt.Errorf("%w: dim %d", ErrCorrupt, d)
		}
		pos += n
		cfg.Dims[d] = int(v)
		total *= int(v)
		if total > 1<<31-1 {
			return nil, 0, cfg, fmt.Errorf("%w: element count overflow", ErrCorrupt)
		}
	}
	if err := need(1); err != nil {
		return nil, 0, cfg, err
	}
	cfg.Predictor = PredictorKind(payload[pos])
	pos++

	// Block flags.
	flagCount, n := binary.Uvarint(payload[pos:])
	if n <= 0 {
		return nil, 0, cfg, fmt.Errorf("%w: flag count", ErrCorrupt)
	}
	pos += n
	flagBytes := (int(flagCount) + 7) / 8
	if err := need(flagBytes); err != nil {
		return nil, 0, cfg, err
	}
	flags := make([]bool, flagCount)
	for i := range flags {
		flags[i] = payload[pos+i/8]&(1<<uint(i%8)) != 0
	}
	pos += flagBytes
	// Models.
	modelCount, n := binary.Uvarint(payload[pos:])
	if n <= 0 {
		return nil, 0, cfg, fmt.Errorf("%w: model count", ErrCorrupt)
	}
	pos += n
	if err := need(int(modelCount) * 16); err != nil {
		return nil, 0, cfg, err
	}
	models := make([]regressionModel, modelCount)
	for i := range models {
		for c := 0; c < 4; c++ {
			models[i].coef[c] = math.Float32frombits(binary.LittleEndian.Uint32(payload[pos:]))
			pos += 4
		}
	}
	// Codes.
	codes, used, err := decodeCodes(payload[pos:])
	if err != nil {
		return nil, 0, cfg, err
	}
	pos += used
	if len(codes) != total {
		return nil, 0, cfg, fmt.Errorf("%w: %d codes for %d elements", ErrCorrupt, len(codes), total)
	}
	// Exact values.
	exactCount, n := binary.Uvarint(payload[pos:])
	if n <= 0 {
		return nil, 0, cfg, fmt.Errorf("%w: exact count", ErrCorrupt)
	}
	pos += n
	elemSize := dt.Size()
	if err := need(int(exactCount) * elemSize); err != nil {
		return nil, 0, cfg, err
	}
	exact := make([]float64, exactCount)
	for i := range exact {
		if dt == Float32 {
			exact[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(payload[pos:])))
		} else {
			exact[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[pos:]))
		}
		pos += elemSize
	}

	// Reconstruct.
	q := newQuantizer(cfg.ErrorBound)
	round32 := dt == Float32
	if cfg.Predictor == PredictorInterpolation {
		recon, err := decompressInterpND(total, cfg.Dims, codes, exact, q, round32)
		if err != nil {
			return nil, 0, cfg, err
		}
		return recon, dt, cfg, nil
	}
	lz := newLorenzo(cfg.Dims)
	edge := blockEdge(len(cfg.Dims))
	// Pre-validate that the exact-value stream covers every zero code so
	// the slab kernels run without per-element error checks.
	zeros := 0
	for _, c := range codes {
		if c == 0 {
			zeros++
		}
	}
	if zeros > len(exact) {
		return nil, 0, cfg, fmt.Errorf("%w: missing exact value", ErrCorrupt)
	}
	if pooled == nil {
		pooled = new([]float64)
	}
	ds := &dequantSlab{
		twoEB:   q.twoEB,
		round32: round32,
		recon:   resize(pooled, total),
		codes:   codes,
		exact:   exact,
		strides: lz.strides,
		dims:    cfg.Dims,
	}
	blockIdx, modelIdx := 0, 0
	var walkErr error
	blockIter(cfg.Dims, edge, func(lo, hi []int) {
		if walkErr != nil {
			return
		}
		if blockIdx >= len(flags) {
			walkErr = fmt.Errorf("%w: missing block flag", ErrCorrupt)
			return
		}
		useReg := flags[blockIdx]
		blockIdx++
		if useReg {
			if modelIdx >= len(models) {
				walkErr = fmt.Errorf("%w: missing regression model", ErrCorrupt)
				return
			}
			ds.regressionBlock(lo, hi, models[modelIdx])
			modelIdx++
			return
		}
		ds.lorenzoBlock(lo, hi)
	})
	if walkErr != nil {
		return nil, 0, cfg, walkErr
	}
	return ds.recon, dt, cfg, nil
}
