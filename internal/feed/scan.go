package feed

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"github.com/memdos/sds/internal/pcm"
)

// FrameScanner decodes the binary frame grammar out of caller-managed byte
// windows instead of an io.Reader. The sharded ingest plane reads a large
// block of bytes per socket syscall and walks every complete frame in
// place — no bufio layer, no per-frame scratch copy, no io.ReadFull. A
// partial trailing frame is the caller's to carry into the next window
// (see Next's consumed result); the scanner itself holds no buffered
// bytes, only the frame counter and end-of-stream latch, so it is cheap
// enough to embed per connection.
//
// Framing loss is fatal, and non-finite samples are quarantined and
// compacted out. Results and error text are pinned, byte for byte over
// randomized streams, against a straightforward io.Reader-based reference
// decoder kept with the package's tests.
type FrameScanner struct {
	frames int
	ended  bool
}

// Frames returns the number of sample frames decoded so far.
func (s *FrameScanner) Frames() int { return s.frames }

// Next decodes the next frame from b into dst (capacity ≥ MaxFrameSamples).
//
//	consumed > 0, err == nil  — one sample frame decoded: n samples in
//	                            dst[:n], quarantined non-finite samples
//	                            compacted out and counted.
//	consumed == 0, err == nil — b holds only a partial frame; the caller
//	                            must carry b and present it again with more
//	                            bytes appended.
//	err == io.EOF             — an end frame was consumed (consumed == 1),
//	                            or the stream had already ended.
//	any other err             — framing lost; fatal.
func (s *FrameScanner) Next(b []byte, dst []pcm.Sample) (consumed, n, quarantined int, err error) {
	if s.ended {
		return 0, 0, 0, io.EOF
	}
	if len(b) == 0 {
		return 0, 0, 0, nil
	}
	switch b[0] {
	case frameEnd:
		s.ended = true
		return 1, 0, 0, io.EOF
	case frameSamples:
	default:
		return 0, 0, 0, fmt.Errorf("feed: frame %d: unknown frame type 0x%02x (framing lost)", s.frames+1, b[0])
	}
	if len(b) < 3 {
		return 0, 0, 0, nil
	}
	count := int(binary.LittleEndian.Uint16(b[1:3]))
	if count == 0 || count > MaxFrameSamples {
		return 0, 0, 0, fmt.Errorf("feed: frame %d: bad sample count %d (want 1..%d)", s.frames+1, count, MaxFrameSamples)
	}
	if cap(dst) < count {
		return 0, 0, 0, fmt.Errorf("feed: frame %d: destination capacity %d < frame count %d", s.frames+1, cap(dst), count)
	}
	total := 3 + count*sampleBytes
	if len(b) < total {
		return 0, 0, 0, nil
	}
	s.frames++
	dst = dst[:0]
	for off := 3; off < total; off += sampleBytes {
		tb := binary.LittleEndian.Uint64(b[off:])
		ab := binary.LittleEndian.Uint64(b[off+8:])
		mb := binary.LittleEndian.Uint64(b[off+16:])
		// Non-finite ⇔ all exponent bits set (NaN or ±Inf): one mask test
		// per field instead of IsNaN||IsInf on materialized floats. The OR
		// across fields is a cheap negative filter — if it lacks an exponent
		// bit, no field can be non-finite — so the common all-finite case
		// costs one branch.
		if (tb|ab|mb)&finiteMask == finiteMask &&
			(tb&finiteMask == finiteMask || ab&finiteMask == finiteMask || mb&finiteMask == finiteMask) {
			quarantined++
			continue
		}
		dst = append(dst, pcm.Sample{
			T:      math.Float64frombits(tb),
			Access: math.Float64frombits(ab),
			Miss:   math.Float64frombits(mb),
		})
	}
	return total, len(dst), quarantined, nil
}

// finiteMask selects a float64's exponent bits; a value is NaN or ±Inf
// exactly when all of them are set.
const finiteMask = uint64(0x7ff) << 52

// Truncated maps the bytes left over at EOF to the stream's terminal
// error: nil for a clean frame boundary, otherwise the truncated-header/
// payload (or framing) error of a stream cut mid-frame, the same text an
// io.Reader-based decoder reports.
func (s *FrameScanner) Truncated(pending []byte) error {
	if s.ended || len(pending) == 0 {
		return nil
	}
	switch pending[0] {
	case frameSamples:
	default:
		return fmt.Errorf("feed: frame %d: unknown frame type 0x%02x (framing lost)", s.frames+1, pending[0])
	}
	if len(pending) < 3 {
		return fmt.Errorf("feed: frame %d: truncated header: %w", s.frames+1, io.ErrUnexpectedEOF)
	}
	count := int(binary.LittleEndian.Uint16(pending[1:3]))
	if count == 0 || count > MaxFrameSamples {
		return fmt.Errorf("feed: frame %d: bad sample count %d (want 1..%d)", s.frames+1, count, MaxFrameSamples)
	}
	return fmt.Errorf("feed: frame %d: truncated payload: %w", s.frames+1, io.ErrUnexpectedEOF)
}
