package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"testing"

	"dbiopt/internal/bus"
)

// TestWriteReadRoundTrip: bursts written to the binary format read back
// identically, via a plain buffer (no seeking: count = 0, EOF-terminated).
func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 8)
	if err != nil {
		t.Fatal(err)
	}
	src := NewUniform(11)
	var want []bus.Burst
	for i := 0; i < 20; i++ {
		b := src.Next(8)
		want = append(want, b)
		if err := w.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 20 {
		t.Errorf("Count = %d", w.Count())
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Beats() != 8 {
		t.Errorf("Beats = %d", r.Beats())
	}
	for i, wb := range want {
		got, err := r.Read()
		if err != nil {
			t.Fatalf("burst %d: %v", i, err)
		}
		if !got.Equal(wb) {
			t.Fatalf("burst %d mismatch", i)
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

// TestWriteReadFileBackpatch: writing to a real file backpatches the count.
func TestWriteReadFileBackpatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.dbit")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if err := w.Write(bus.Burst{byte(i), 1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if raw[8] != 7 { // little-endian count backpatched
		t.Errorf("count byte = %d, want 7", raw[8])
	}
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		if _, err := r.Read(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 7 {
		t.Errorf("read %d bursts", n)
	}
}

// TestWriterValidation covers writer guard rails.
func TestWriterValidation(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, 0); err == nil {
		t.Error("beats=0 accepted")
	}
	if _, err := NewWriter(&buf, 256); err == nil {
		t.Error("beats=256 accepted")
	}
	w, err := NewWriter(&buf, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(bus.Burst{1}); err == nil {
		t.Error("short burst accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Error("double close should be a no-op")
	}
	if err := w.Write(bus.Burst{1, 2, 3, 4}); err == nil {
		t.Error("write after close accepted")
	}
}

// TestReaderValidation covers malformed headers and truncation.
func TestReaderValidation(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("short"))); err == nil {
		t.Error("truncated header accepted")
	}
	bad := append([]byte("XXXX"), make([]byte, 8)...)
	if _, err := NewReader(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	badVer := append([]byte("DBIT"), 9, 8, 0, 0, 0, 0, 0, 0)
	if _, err := NewReader(bytes.NewReader(badVer)); err == nil {
		t.Error("bad version accepted")
	}
	zeroBeats := append([]byte("DBIT"), 1, 0, 0, 0, 0, 0, 0, 0)
	if _, err := NewReader(bytes.NewReader(zeroBeats)); err == nil {
		t.Error("zero beats accepted")
	}
	// Truncated payload mid-burst.
	trunc := append([]byte("DBIT"), 1, 8, 0, 0, 0, 0, 0, 0)
	trunc = append(trunc, 1, 2, 3) // 3 of 8 bytes
	r, err := NewReader(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); err == nil || err == io.EOF {
		t.Errorf("truncated burst: got %v, want hard error", err)
	}

	// A header declaring 10 bursts over a payload cut to 6 whole bursts is
	// truncated too, not a clean 6-burst trace — for Read and for
	// NextFrame alike. With count 0 the same payload is a clean 6-burst
	// trace.
	const beats, declared, kept = 4, 10, 6
	cut := func(count uint32) []byte {
		blob := append([]byte("DBIT"), 1, beats, 0, 0)
		blob = binary.LittleEndian.AppendUint32(blob, count)
		for i := 0; i < kept*beats; i++ {
			blob = append(blob, byte(i))
		}
		return blob
	}
	for _, count := range []uint32{declared, 0} {
		r, err := NewReader(bytes.NewReader(cut(count)))
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for ; ; n++ {
			if _, err = r.Read(); err != nil {
				break
			}
		}
		if n != kept {
			t.Errorf("count %d: Read delivered %d bursts, want %d", count, n, kept)
		}
		if hard := err != io.EOF; hard != (count != 0) {
			t.Errorf("count %d: Read ended with %v", count, err)
		}

		r, err = NewReader(bytes.NewReader(cut(count)))
		if err != nil {
			t.Fatal(err)
		}
		fr, err := NewFrameReader(r, 4)
		if err != nil {
			t.Fatal(err)
		}
		n = 0
		for {
			f, err := fr.NextFrame()
			if err != nil {
				if hard := err != io.EOF; hard != (count != 0) {
					t.Errorf("count %d: NextFrame ended with %v", count, err)
				}
				break
			}
			for _, b := range f {
				n += len(b) / beats
			}
		}
		want := kept
		if count != 0 {
			want = 4 // the one whole frame before the payload ran out
		}
		if n != want {
			t.Errorf("count %d: NextFrame delivered %d bursts, want %d", count, n, want)
		}
	}
}

// TestHexBurst covers the text format round trip.
func TestHexBurst(t *testing.T) {
	b, err := ParseHexBurst("8E 86 96 E9 7D B7 57 C4")
	if err != nil {
		t.Fatal(err)
	}
	want := bus.Burst{0x8E, 0x86, 0x96, 0xE9, 0x7D, 0xB7, 0x57, 0xC4}
	if !b.Equal(want) {
		t.Fatalf("parsed %v", b)
	}
	if got := FormatHexBurst(b); got != "8E 86 96 E9 7D B7 57 C4" {
		t.Errorf("formatted %q", got)
	}
	for _, bad := range []string{"", "GG", "123", "8E 8"} {
		if _, err := ParseHexBurst(bad); err == nil {
			t.Errorf("ParseHexBurst(%q) accepted", bad)
		}
	}
}

// TestFromBytes covers chopping and padding.
func TestFromBytes(t *testing.T) {
	bursts := FromBytes([]byte{1, 2, 3, 4, 5}, 2)
	if len(bursts) != 3 {
		t.Fatalf("got %d bursts", len(bursts))
	}
	if bursts[2][0] != 5 || bursts[2][1] != 0 {
		t.Errorf("tail burst = %v, want zero padding", bursts[2])
	}
	defer func() {
		if recover() == nil {
			t.Error("beats=0 should panic")
		}
	}()
	FromBytes(nil, 0)
}
