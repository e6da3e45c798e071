package feed

import (
	"bufio"
	"encoding/binary"
	"io"
	"math"

	"github.com/memdos/sds/internal/pcm"
)

// Binary frame encoding (`frames=bin` in the sds/1 handshake).
//
// The CSV text protocol costs one strconv parse per field per sample; at
// the stream volumes of a hypervisor-wide deployment (one detector per
// co-resident VM, T_PCM = 10 ms) that parse dominates the ingest path. The
// binary encoding batches samples into length-prefixed frames of fixed
// 24-byte little-endian records, so decoding is a bounds check and three
// Float64frombits per sample, into a caller-owned buffer — zero
// allocations per frame in steady state.
//
// Wire format, after the text handshake and its `ok … frames=bin` reply:
//
//	frame     := sampleFrame | endFrame
//	sampleFrame := 0x01 count:uint16le count*sample
//	sample    := t:float64le access:float64le miss:float64le
//	endFrame  := 0x02
//
// count is 1..MaxFrameSamples. The sender batches as many samples per
// frame as it likes within that cap (latency is the sender's tradeoff: a
// live telemetry agent flushes small frames every T_PCM, a replay client
// sends full ones). An endFrame marks the clean end of stream; a plain
// EOF at a frame boundary is also accepted, mirroring CSV streams that
// simply close.
//
// Error semantics differ from CSV deliberately: CSV is self-synchronizing
// at newlines, so malformed lines are quarantined and the stream
// continues. A binary stream that presents an unknown frame type or a bad
// count has lost framing — there is no resynchronization point — so those
// are fatal. Per-sample damage that leaves framing intact (non-finite
// fields) is quarantined exactly like a malformed CSV line: the decoder
// (FrameScanner.Next) compacts such samples out and reports them.
const (
	frameSamples byte = 0x01
	frameEnd     byte = 0x02

	// MaxFrameSamples caps the per-frame batch: bounds the decoder's
	// buffer (24 KiB payload) and the per-connection pooled batch memory.
	MaxFrameSamples = 1024

	sampleBytes = 24 // 3 × float64
)

// BinWriter encodes samples into binary frames. Not safe for concurrent
// use.
type BinWriter struct {
	w   *bufio.Writer
	buf []byte // frame assembly scratch: header + payload
}

// NewBinWriter returns a BinWriter over w.
func NewBinWriter(w io.Writer) *BinWriter {
	return &BinWriter{
		w:   bufio.NewWriterSize(w, 64*1024),
		buf: make([]byte, 3+MaxFrameSamples*sampleBytes),
	}
}

// WriteBatch emits batch as one or more sample frames (splitting batches
// beyond MaxFrameSamples). An empty batch writes nothing.
func (w *BinWriter) WriteBatch(batch []pcm.Sample) error {
	for len(batch) > 0 {
		n := len(batch)
		if n > MaxFrameSamples {
			n = MaxFrameSamples
		}
		w.buf[0] = frameSamples
		binary.LittleEndian.PutUint16(w.buf[1:3], uint16(n))
		off := 3
		for _, s := range batch[:n] {
			binary.LittleEndian.PutUint64(w.buf[off:], math.Float64bits(s.T))
			binary.LittleEndian.PutUint64(w.buf[off+8:], math.Float64bits(s.Access))
			binary.LittleEndian.PutUint64(w.buf[off+16:], math.Float64bits(s.Miss))
			off += sampleBytes
		}
		if _, err := w.w.Write(w.buf[:off]); err != nil {
			return err
		}
		batch = batch[n:]
	}
	return nil
}

// Write emits one sample as a single-sample frame (the live-telemetry
// shape: one frame per T_PCM tick, immediately flushable).
func (w *BinWriter) Write(s pcm.Sample) error {
	w.buf[0] = frameSamples
	binary.LittleEndian.PutUint16(w.buf[1:3], 1)
	binary.LittleEndian.PutUint64(w.buf[3:], math.Float64bits(s.T))
	binary.LittleEndian.PutUint64(w.buf[11:], math.Float64bits(s.Access))
	binary.LittleEndian.PutUint64(w.buf[19:], math.Float64bits(s.Miss))
	_, err := w.w.Write(w.buf[:3+sampleBytes])
	return err
}

// End writes the end-of-stream frame and flushes.
func (w *BinWriter) End() error {
	if err := w.w.WriteByte(frameEnd); err != nil {
		return err
	}
	return w.w.Flush()
}

// Flush flushes buffered frames without ending the stream.
func (w *BinWriter) Flush() error { return w.w.Flush() }
