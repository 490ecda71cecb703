package codec

import (
	"bytes"
	"strings"
	"testing"
)

func TestCodecRoundTrip(t *testing.T) {
	var w Writer
	w.U8(7)
	w.U16(0xbeef)
	at := len(w.B)
	w.U32(0)
	w.U64(1 << 60)
	w.Str("")
	w.Str("genie")
	w.Raw([]byte{1, 2, 3})
	w.SetU32(at, 0xdeadbeef)
	if w.Err() != nil {
		t.Fatal(w.Err())
	}
	want := []byte{7, 0xef, 0xbe, 0xef, 0xbe, 0xad, 0xde, 0, 0, 0, 0, 0, 0, 0, 0x10,
		0, 0, 5, 0, 'g', 'e', 'n', 'i', 'e', 1, 2, 3}
	if !bytes.Equal(w.B, want) {
		t.Fatalf("encoding\n got %v\nwant %v", w.B, want)
	}
	r := NewReader(w.B)
	if r.U8() != 7 || r.U16() != 0xbeef || r.U32() != 0xdeadbeef || r.U64() != 1<<60 ||
		r.Str() != "" || r.Str() != "genie" || !bytes.Equal(r.Take(3), []byte{1, 2, 3}) {
		t.Fatal("read back differs")
	}
	if r.Err() != nil || r.Len() != 0 {
		t.Fatalf("err %v, %d bytes left", r.Err(), r.Len())
	}
}

// TestStrLimit: a u16 prefix carries 65 535 bytes; one more is refused
// rather than written with a wrapped prefix.
func TestStrLimit(t *testing.T) {
	var w Writer
	w.Str(strings.Repeat("a", MaxStr))
	if w.Err() != nil {
		t.Fatal(w.Err())
	}
	r := NewReader(w.B)
	if s := r.Str(); len(s) != MaxStr || r.Err() != nil {
		t.Fatalf("read %d bytes, err %v", len(s), r.Err())
	}
	n := len(w.B)
	w.Str(strings.Repeat("a", MaxStr+1))
	if w.Err() == nil || len(w.B) != n {
		t.Fatalf("over-long string: err %v, %d bytes written", w.Err(), len(w.B)-n)
	}
	w.Str("ok")
	if w.Err() == nil {
		t.Fatal("writer failure did not stick")
	}
}

// TestReaderFailureSticks: the first short read fails the reader at its
// offset, and every later read returns zero values without moving on.
func TestReaderFailureSticks(t *testing.T) {
	r := NewReader([]byte{1, 2, 3, 4, 5})
	if r.U32() != 0x04030201 {
		t.Fatal("bad u32")
	}
	if r.U16() != 0 || r.Err() == nil || !strings.Contains(r.Err().Error(), "offset 4") {
		t.Fatalf("short u16: err %v", r.Err())
	}
	first := r.Err()
	if r.U8() != 0 || r.Str() != "" || r.Take(0) != nil || r.Len() != 1 {
		t.Fatal("a failed reader kept reading")
	}
	r.Fail("later")
	if r.Err() != first {
		t.Fatal("a later failure replaced the first")
	}
	if neg := NewReader([]byte{1}); neg.Take(-1) != nil || neg.Err() == nil {
		t.Fatal("negative take accepted")
	}
}
