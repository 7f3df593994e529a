package binio

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

func TestPrimitivesRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Uvarint(0)
	w.Uvarint(1<<63 + 7)
	w.Int(42)
	w.Bool(true)
	w.Bool(false)
	w.Str("")
	w.Str("hello, κόσμος")
	w.Float(math.Pi)
	w.Float(math.Inf(-1))
	w.Str("skipped")
	w.Blob([]byte{9, 8, 7})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewBytesReader(buf.Bytes())
	if got := r.Uvarint(); got != 0 {
		t.Errorf("uvarint = %d", got)
	}
	if got := r.Uvarint(); got != 1<<63+7 {
		t.Errorf("uvarint = %d", got)
	}
	if got := r.Int(); got != 42 {
		t.Errorf("int = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("bools wrong")
	}
	if got := r.Str(); got != "" {
		t.Errorf("str = %q", got)
	}
	if got := r.Str(); got != "hello, κόσμος" {
		t.Errorf("str = %q", got)
	}
	if got := r.Float(); got != math.Pi {
		t.Errorf("float = %v", got)
	}
	if got := r.Float(); !math.IsInf(got, -1) {
		t.Errorf("float = %v", got)
	}
	if !r.More() {
		t.Error("More() false before the skipped string")
	}
	r.SkipStr()
	if got := r.Blob(); !bytes.Equal(got, []byte{9, 8, 7}) {
		t.Errorf("blob = %v", got)
	}
	if r.More() {
		t.Error("More() after end")
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}

	// Every truncation surfaces as the sticky error.
	data := buf.Bytes()
	for cut := 0; cut < len(data); cut++ {
		r := NewBytesReader(data[:cut])
		r.Uvarint()
		r.Uvarint()
		r.Int()
		r.Bool()
		r.Bool()
		r.Str()
		r.Str()
		r.Float()
		r.Float()
		r.SkipStr()
		r.Blob()
		if !errors.Is(r.Err(), ErrCorrupt) {
			t.Fatalf("cut at %d: truncated input decoded cleanly (err %v)", cut, r.Err())
		}
	}
}

func TestCapacityBoundedByRemaining(t *testing.T) {
	r := NewBytesReader(make([]byte, 41))
	if got := r.Capacity(1<<31-1, 5); got != 8 {
		t.Errorf("Capacity(2^31-1, 5) over 41 bytes = %d, want 8", got)
	}
	if got := r.Capacity(3, 5); got != 3 {
		t.Errorf("Capacity(3, 5) over 41 bytes = %d, want 3", got)
	}
	r.Skip(40)
	if got := r.Capacity(100, 2); got != 0 {
		t.Errorf("Capacity(100, 2) over 1 byte = %d, want 0", got)
	}
}

func TestSectionsRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Section(1, func(sw *Writer) { sw.Str("first") })
	w.Section(7, func(sw *Writer) { sw.Int(123); sw.Str("second") })
	w.End()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewBytesReader(buf.Bytes())
	id, body := r.Section()
	if id != 1 || body.Str() != "first" || body.Err() != nil {
		t.Fatalf("section 1 wrong: id=%d", id)
	}
	id, body = r.Section()
	if id != 7 || body.Int() != 123 || body.Str() != "second" {
		t.Fatalf("section 7 wrong: id=%d", id)
	}
	if id, _ := r.Section(); id != EndSection {
		t.Fatalf("expected end marker, got %d", id)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestSectionChecksumDetectsFlips(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Section(3, func(sw *Writer) { sw.Str(strings.Repeat("payload ", 32)) })
	w.End()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip one payload byte well inside the section.
	for _, off := range []int{len(data) / 2, len(data) - 6} {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		r := NewBytesReader(mut)
		for {
			id, _ := r.Section()
			if id == EndSection {
				break
			}
		}
		if err := r.Err(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("flip at %d: error = %v, want ErrCorrupt", off, err)
		}
	}
}

func TestSectionTruncation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Section(2, func(sw *Writer) { sw.Str("some payload content") })
	w.End()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for cut := 1; cut < len(data)-1; cut += 3 {
		r := NewBytesReader(data[:cut])
		id, _ := r.Section()
		if id != EndSection && r.Err() == nil {
			// Section decoded fully despite truncation: must be impossible.
			t.Fatalf("cut at %d: section %d decoded from truncated stream", cut, id)
		}
	}
}

func TestSectionRejectsReservedID(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Section(EndSection, func(sw *Writer) {})
	if err := w.Flush(); err == nil {
		t.Error("section ID 0 accepted")
	}
}

func TestReaderSticksOnFirstError(t *testing.T) {
	r := NewBytesReader(nil)
	_ = r.Uvarint()
	first := r.Err()
	if first == nil {
		t.Fatal("no error on empty input")
	}
	_ = r.Str()
	if r.Err() != first {
		t.Error("error did not stick")
	}
}

func TestBoolRejectsOther(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Uvarint(2)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewBytesReader(buf.Bytes())
	_ = r.Bool()
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Error("bool 2 accepted")
	}
}
