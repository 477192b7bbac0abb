package trace

import (
	"bufio"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"strings"

	"dbiopt/internal/bus"
)

// The binary trace format is a tiny self-describing container:
//
//	magic "DBIT" | version u8 | beats u8 | reserved u16 | count u32 |
//	count * beats payload bytes
//
// All integers are little-endian. A zero count means "until EOF", which is
// how a writer that cannot seek back (and every in-memory blob) leaves it; a
// nonzero count is the number of bursts to replay, and a payload that ends
// before that many is truncated. It exists so cmd/dbienc can persist and
// replay workloads, and so traces can be exchanged with other tools.

const (
	traceMagic   = "DBIT"
	traceVersion = 1
)

// Writer serialises bursts to the binary trace format.
type Writer struct {
	w      *bufio.Writer
	beats  int
	count  uint32
	closed bool
	// seeker, if the underlying stream supports it, lets Close backpatch
	// the burst count.
	seeker io.WriteSeeker
}

// NewWriter starts a trace of bursts with the given beat count on w. If w is
// also an io.Seeker the burst count in the header is fixed up on Close;
// otherwise the count field is written as zero and readers rely on EOF.
func NewWriter(w io.Writer, beats int) (*Writer, error) {
	if beats <= 0 || beats > 255 {
		return nil, fmt.Errorf("trace: beats must be in 1..255, got %d", beats)
	}
	tw := &Writer{w: bufio.NewWriter(w), beats: beats}
	if ws, ok := w.(io.WriteSeeker); ok {
		tw.seeker = ws
	}
	hdr := make([]byte, 12)
	copy(hdr, traceMagic)
	hdr[4] = traceVersion
	hdr[5] = byte(beats)
	// hdr[6:8] reserved, hdr[8:12] count backpatched on Close
	if _, err := tw.w.Write(hdr); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	return tw, nil
}

// Write appends one burst; its length must match the trace's beat count.
func (tw *Writer) Write(b bus.Burst) error {
	if tw.closed {
		return fmt.Errorf("trace: write after Close")
	}
	if len(b) != tw.beats {
		return fmt.Errorf("trace: burst has %d beats, trace expects %d", len(b), tw.beats)
	}
	if _, err := tw.w.Write(b); err != nil {
		return fmt.Errorf("trace: writing burst: %w", err)
	}
	tw.count++
	return nil
}

// Close flushes buffered data and, when possible, backpatches the burst
// count into the header.
func (tw *Writer) Close() error {
	if tw.closed {
		return nil
	}
	tw.closed = true
	if err := tw.w.Flush(); err != nil {
		return fmt.Errorf("trace: flushing: %w", err)
	}
	if tw.seeker != nil {
		if _, err := tw.seeker.Seek(8, io.SeekStart); err != nil {
			return fmt.Errorf("trace: seeking to count: %w", err)
		}
		var buf [4]byte
		binary.LittleEndian.PutUint32(buf[:], tw.count)
		if _, err := tw.seeker.Write(buf[:]); err != nil {
			return fmt.Errorf("trace: backpatching count: %w", err)
		}
		if _, err := tw.seeker.Seek(0, io.SeekEnd); err != nil {
			return fmt.Errorf("trace: seeking to end: %w", err)
		}
	}
	return nil
}

// Count returns the number of bursts written so far.
func (tw *Writer) Count() int { return int(tw.count) }

// Reader replays bursts from the binary trace format.
type Reader struct {
	r     *bufio.Reader
	beats int
	count uint32 // zero means "until EOF"
	read  uint32
}

// NewReader parses the header and prepares to stream bursts.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	hdr := make([]byte, 12)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(hdr[:4]) != traceMagic {
		return nil, fmt.Errorf("trace: bad magic %q", hdr[:4])
	}
	if hdr[4] != traceVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", hdr[4])
	}
	beats := int(hdr[5])
	if beats == 0 {
		return nil, fmt.Errorf("trace: header declares zero beats per burst")
	}
	return &Reader{r: br, beats: beats, count: binary.LittleEndian.Uint32(hdr[8:12])}, nil
}

// Beats returns the burst length of the trace.
func (tr *Reader) Beats() int { return tr.beats }

// Read returns the next burst, or io.EOF after the last one.
func (tr *Reader) Read() (bus.Burst, error) {
	b := make(bus.Burst, tr.beats)
	if _, err := tr.readBursts(b); err != nil {
		return nil, err
	}
	return b, nil
}

// readBursts fills p, whose length is a whole number of bursts, with as many
// bursts as the trace still holds and returns how many it read. It is the
// one place the format's payload rules live, so Read and FrameReader cannot
// drift apart:
//   - a nonzero header count caps the bursts read, and a payload that ends
//     before that count is a hard "truncated trace" error;
//   - a zero count means "until EOF": the payload may end at any burst
//     boundary, returning the bursts read so far and, once none remain,
//     io.EOF;
//   - a payload that ends inside a burst is a hard "truncated burst" error.
func (tr *Reader) readBursts(p []byte) (int, error) {
	want := len(p) / tr.beats
	if tr.count != 0 {
		if left := tr.count - tr.read; uint64(left) < uint64(want) {
			want = int(left)
		}
		if want == 0 {
			return 0, io.EOF
		}
	}
	got, err := io.ReadFull(tr.r, p[:want*tr.beats])
	n := got / tr.beats
	tr.read += uint32(n)
	switch {
	case err == nil:
		return n, nil
	case err != io.EOF && err != io.ErrUnexpectedEOF:
		return n, fmt.Errorf("trace: reading burst: %w", err)
	case got%tr.beats != 0:
		return n, fmt.Errorf("trace: truncated burst: %w", io.ErrUnexpectedEOF)
	case tr.count != 0:
		return n, fmt.Errorf("trace: truncated trace: header declares %d bursts, payload holds %d: %w", tr.count, tr.read, io.ErrUnexpectedEOF)
	case n == 0:
		return 0, io.EOF
	}
	return n, nil
}

// ParseHexBurst parses a burst written as whitespace-separated hex bytes,
// e.g. "8E 86 96 E9 7D B7 57 C4".
func ParseHexBurst(s string) (bus.Burst, error) {
	fields := strings.Fields(s)
	b := make(bus.Burst, 0, len(fields))
	for _, f := range fields {
		raw, err := hex.DecodeString(f)
		if err != nil || len(raw) != 1 {
			return nil, fmt.Errorf("trace: bad hex byte %q", f)
		}
		b = append(b, raw[0])
	}
	if len(b) == 0 {
		return nil, fmt.Errorf("trace: empty burst")
	}
	return b, nil
}

// FormatHexBurst renders a burst as space-separated uppercase hex bytes.
func FormatHexBurst(b bus.Burst) string {
	var sb strings.Builder
	for i, v := range b {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%02X", v)
	}
	return sb.String()
}

// FromBytes chops a flat byte slice into bursts of the given length,
// zero-padding the tail if necessary.
func FromBytes(data []byte, beats int) []bus.Burst {
	if beats <= 0 {
		panic(fmt.Sprintf("trace: beats must be positive, got %d", beats))
	}
	n := (len(data) + beats - 1) / beats
	bursts := make([]bus.Burst, 0, n)
	for i := 0; i < len(data); i += beats {
		b := make(bus.Burst, beats)
		copy(b, data[i:])
		bursts = append(bursts, b)
	}
	return bursts
}
