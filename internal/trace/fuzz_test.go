package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// FuzzReader: arbitrary bytes never crash the trace reader; they either
// parse or fail cleanly.
func FuzzReader(f *testing.F) {
	// A valid two-burst trace as seed.
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 4)
	if err != nil {
		f.Fatal(err)
	}
	_ = w.Write([]byte{1, 2, 3, 4})
	_ = w.Write([]byte{5, 6, 7, 8})
	_ = w.Close()
	f.Add(buf.Bytes())
	f.Add([]byte("DBIT"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := 0; i < 1000; i++ {
			if _, err := r.Read(); err != nil {
				if err != io.EOF {
					// A hard error is fine; it must just not panic.
					_ = err
				}
				return
			}
		}
	})
}

// FuzzFrameReader: for arbitrary bytes and 1..8 lanes, FrameReader delivers
// exactly the frames, final padding and terminal error class that the
// documented header layout implies. The oracle slices the input directly
// and never goes through Reader.
func FuzzFrameReader(f *testing.F) {
	hdr := func(beats byte, count uint32) []byte {
		return binary.LittleEndian.AppendUint32([]byte{'D', 'B', 'I', 'T', traceVersion, beats, 0, 0}, count)
	}
	seven := bytes.Repeat([]byte{0xA5, 0x3C, 0xFF, 0x00}, 7)
	f.Add(append(hdr(4, 0), seven...), uint8(3))      // short final frame
	f.Add(append(hdr(4, 7), seven...), uint8(7))      // count == payload
	f.Add(append(hdr(4, 10), seven...), uint8(2))     // payload cut at a burst boundary
	f.Add(append(hdr(4, 5), seven...), uint8(4))      // count below payload
	f.Add(append(hdr(4, 0), seven[:13]...), uint8(2)) // cut mid-burst
	f.Add(hdr(8, 0), uint8(1))
	f.Add([]byte("DBIT"), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, lanesSeed uint8) {
		lanes := 1 + int(lanesSeed%8)
		r, err := NewReader(bytes.NewReader(data))
		headerOK := len(data) >= 12 && string(data[:4]) == traceMagic && data[4] == traceVersion && data[5] != 0
		if (err == nil) != headerOK {
			t.Fatalf("NewReader err = %v, oracle header ok = %v", err, headerOK)
		}
		if err != nil {
			return
		}
		fr, err := NewFrameReader(r, lanes)
		if err != nil {
			t.Fatal(err)
		}

		// Oracle: avail bursts are delivered; a clean trace ends in a
		// padded short frame (if any bursts are left over) and io.EOF, an
		// unclean one ends after its whole frames in a hard error.
		beats := int(data[5])
		count := uint64(binary.LittleEndian.Uint32(data[8:12]))
		payload := data[12:]
		whole := uint64(len(payload) / beats)
		avail, clean := whole, len(payload)%beats == 0
		if count != 0 {
			avail, clean = min(count, whole), whole >= count
		}
		frames := (int(avail) + lanes - 1) / lanes
		if !clean {
			frames = int(avail) / lanes
		}

		for k := 0; k < frames; k++ {
			fm, err := fr.NextFrame()
			if err != nil {
				t.Fatalf("frame %d of %d: %v", k, frames, err)
			}
			if len(fm) != lanes {
				t.Fatalf("frame %d has %d lanes, want %d", k, len(fm), lanes)
			}
			for l, b := range fm {
				i := k*lanes + l
				if i >= int(avail) {
					if len(b) != 0 {
						t.Fatalf("frame %d lane %d: padding has %d beats, want 0", k, l, len(b))
					}
					continue
				}
				want := payload[i*beats : (i+1)*beats]
				if !bytes.Equal(b, want) || cap(b) != beats {
					t.Fatalf("frame %d lane %d: %x (cap %d), want %x (cap %d)", k, l, b, cap(b), want, beats)
				}
			}
		}
		_, err = fr.NextFrame()
		if clean && err != io.EOF {
			t.Fatalf("after %d frames: err = %v, want io.EOF", frames, err)
		}
		if !clean && (err == nil || err == io.EOF) {
			t.Fatalf("after %d frames: err = %v, want a hard error", frames, err)
		}
	})
}

// FuzzHexBurst: the hex parser round-trips what it accepts.
func FuzzHexBurst(f *testing.F) {
	f.Add("8E 86 96 E9 7D B7 57 C4")
	f.Add("00")
	f.Add("not hex")
	f.Fuzz(func(t *testing.T, s string) {
		b, err := ParseHexBurst(s)
		if err != nil {
			return
		}
		again, err := ParseHexBurst(FormatHexBurst(b))
		if err != nil {
			t.Fatalf("formatted burst failed to parse: %v", err)
		}
		if !again.Equal(b) {
			t.Fatalf("round trip changed the burst: %v vs %v", again, b)
		}
	})
}
