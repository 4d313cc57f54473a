package core

import "errors"

// The PEDAL header (paper Fig. 5, §III-E): three bytes prepended to every
// compressed message. The first and third bytes are 0xFF indicators that
// signal "this payload is compressed"; the second byte is the AlgoID
// naming the compression design, which the receiver uses to pick the
// matching decompression design.
const (
	headerLen       = 3
	headerIndicator = 0xFF
)

// ErrNoHeader marks a payload without a valid PEDAL header — by protocol
// it is an uncompressed message and must be delivered as-is.
var ErrNoHeader = errors.New("core: payload has no PEDAL header (uncompressed)")

// HeaderLen is the wire size of the PEDAL header.
const HeaderLen = headerLen

// ParseHeader inspects a received payload. If it carries a valid PEDAL
// header it returns the algorithm and the compressed body; otherwise it
// returns ErrNoHeader and the caller should treat the whole payload as
// uncompressed data. The retired AlgoHybrid value still parses as a
// header, so such a message is rejected by Decompress instead of being
// passed through as data.
func ParseHeader(msg []byte) (AlgoID, []byte, error) {
	if len(msg) < headerLen || msg[0] != headerIndicator || msg[2] != headerIndicator {
		return 0, nil, ErrNoHeader
	}
	algo := AlgoID(msg[1])
	switch algo {
	case AlgoDeflate, AlgoZlib, AlgoLZ4, AlgoSZ3, AlgoHybrid, AlgoPipelined:
		return algo, msg[headerLen:], nil
	default:
		return 0, nil, ErrNoHeader
	}
}
