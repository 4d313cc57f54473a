package sz3

import "fmt"

// The container helpers below expose the outer framing of an SZ3 stream
// so PEDAL can route the lossless backend stage to the DPU's C-Engine
// (paper §III-C.2, Fig. 4): PEDAL extracts the backend body, runs the
// backend on different hardware, and reassembles a stream that the
// ordinary Decompress* entry points accept.

// SplitContainer parses the outer container and returns the backend kind
// and the backend-compressed body.
func SplitContainer(comp []byte) (BackendKind, []byte, error) {
	if len(comp) < 6 || comp[0] != magic[0] || comp[1] != magic[1] || comp[2] != magic[2] || comp[3] != magic[3] {
		return 0, nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if comp[4] != containerVersion {
		return 0, nil, fmt.Errorf("%w: version %d", ErrCorrupt, comp[4])
	}
	b := BackendKind(comp[5])
	switch b {
	case BackendFastLZ, BackendDeflate, BackendLZ4, BackendNone:
	default:
		return 0, nil, fmt.Errorf("%w: backend %d", ErrCorrupt, b)
	}
	return b, comp[6:], nil
}

// AppendContainer appends a container around an already
// backend-compressed body to dst. An empty body appends the framing
// alone, for a caller that produces the body straight behind it.
func AppendContainer(dst []byte, backend BackendKind, body []byte) []byte {
	dst = append(dst, magic[:]...)
	dst = append(dst, containerVersion, byte(backend))
	return append(dst, body...)
}

// BuildContainer assembles a container around an already
// backend-compressed body.
func BuildContainer(backend BackendKind, body []byte) []byte {
	return AppendContainer(make([]byte, 0, len(body)+6), backend, body)
}
