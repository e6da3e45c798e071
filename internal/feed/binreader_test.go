package feed

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"github.com/memdos/sds/internal/pcm"
)

// BinReader is the reference decoder of the binary frame grammar: a
// straightforward io.Reader-based implementation that FrameScanner, the
// decoder the ingest plane runs, is checked against
// (TestFrameScannerMatchesBinReader) and that the binary fuzz targets
// drive. Not safe for concurrent use.
type BinReader struct {
	br     *bufio.Reader
	buf    []byte // payload scratch, reused across frames
	frames int    // sample frames consumed, for error positions
	ended  bool
}

// NewBinReader returns a BinReader over r. If r is already a
// *bufio.Reader it is used directly (no double buffering).
func NewBinReader(r io.Reader) *BinReader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 64*1024)
	}
	return &BinReader{br: br, buf: make([]byte, MaxFrameSamples*sampleBytes)}
}

// Frames returns the number of sample frames decoded so far.
func (r *BinReader) Frames() int { return r.frames }

// ReadFrame decodes the next sample frame into dst, whose capacity must be
// at least MaxFrameSamples, and returns the number of samples decoded plus
// the number of quarantined samples (non-finite fields, compacted out of
// dst). It returns io.EOF after an end frame or at a clean EOF on a frame
// boundary; any other failure is fatal (framing cannot be recovered).
// Steady-state calls perform no allocation.
func (r *BinReader) ReadFrame(dst []pcm.Sample) (n, quarantined int, err error) {
	if r.ended {
		return 0, 0, io.EOF
	}
	typ, err := r.br.ReadByte()
	if err == io.EOF {
		r.ended = true
		return 0, 0, io.EOF
	}
	if err != nil {
		return 0, 0, fmt.Errorf("feed: frame %d: read: %w", r.frames+1, err)
	}
	switch typ {
	case frameEnd:
		r.ended = true
		return 0, 0, io.EOF
	case frameSamples:
	default:
		return 0, 0, fmt.Errorf("feed: frame %d: unknown frame type 0x%02x (framing lost)", r.frames+1, typ)
	}
	// The count header reuses the payload scratch so nothing escapes to
	// the heap (a stack [2]byte would escape through io.ReadFull).
	if _, err := io.ReadFull(r.br, r.buf[:2]); err != nil {
		return 0, 0, fmt.Errorf("feed: frame %d: truncated header: %w", r.frames+1, noEOF(err))
	}
	count := int(binary.LittleEndian.Uint16(r.buf[:2]))
	if count == 0 || count > MaxFrameSamples {
		return 0, 0, fmt.Errorf("feed: frame %d: bad sample count %d (want 1..%d)", r.frames+1, count, MaxFrameSamples)
	}
	if cap(dst) < count {
		return 0, 0, fmt.Errorf("feed: frame %d: destination capacity %d < frame count %d", r.frames+1, cap(dst), count)
	}
	payload := r.buf[:count*sampleBytes]
	if _, err := io.ReadFull(r.br, payload); err != nil {
		return 0, 0, fmt.Errorf("feed: frame %d: truncated payload: %w", r.frames+1, noEOF(err))
	}
	r.frames++
	dst = dst[:0]
	for off := 0; off < len(payload); off += sampleBytes {
		s := pcm.Sample{
			T:      math.Float64frombits(binary.LittleEndian.Uint64(payload[off:])),
			Access: math.Float64frombits(binary.LittleEndian.Uint64(payload[off+8:])),
			Miss:   math.Float64frombits(binary.LittleEndian.Uint64(payload[off+16:])),
		}
		if nonFinite(s.T) || nonFinite(s.Access) || nonFinite(s.Miss) {
			// Same policy as a malformed CSV line: quarantine the sample,
			// keep the stream. Framing is intact, so this is per-sample
			// damage, not a protocol failure.
			quarantined++
			continue
		}
		dst = append(dst, s)
	}
	return len(dst), quarantined, nil
}

// ReadAll drains the frame stream (allocates freely).
func (r *BinReader) ReadAll() (samples []pcm.Sample, quarantined int, err error) {
	batch := make([]pcm.Sample, 0, MaxFrameSamples)
	for {
		n, q, err := r.ReadFrame(batch)
		quarantined += q
		if err == io.EOF {
			return samples, quarantined, nil
		}
		if err != nil {
			return samples, quarantined, err
		}
		samples = append(samples, batch[:n]...)
	}
}

func nonFinite(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

// noEOF upgrades io.EOF to io.ErrUnexpectedEOF: inside a frame, EOF means
// the stream was cut mid-record.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
