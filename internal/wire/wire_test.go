package wire

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestEncoderDecoderRoundTripPrimitives(t *testing.T) {
	e := &Encoder{}
	e.Uint64(0)
	e.Uint64(1)
	e.Uint64(math.MaxUint64)
	e.Int64(-1)
	e.Int64(math.MinInt64)
	e.Int64(math.MaxInt64)
	e.Uint32(math.MaxUint32)
	e.Byte(0xAB)
	e.Float64(3.14159)
	e.Float64(math.Inf(-1))
	e.String("\x01\x02\x03")
	e.String("hello, 世界")
	e.String("")

	d := NewDecoder(e.buf)
	if got := d.Uint64(); got != 0 {
		t.Errorf("Uint64 = %d, want 0", got)
	}
	if got := d.Uint64(); got != 1 {
		t.Errorf("Uint64 = %d, want 1", got)
	}
	if got := d.Uint64(); got != math.MaxUint64 {
		t.Errorf("Uint64 = %d, want MaxUint64", got)
	}
	if got := d.Int64(); got != -1 {
		t.Errorf("Int64 = %d, want -1", got)
	}
	if got := d.Int64(); got != math.MinInt64 {
		t.Errorf("Int64 = %d, want MinInt64", got)
	}
	if got := d.Int64(); got != math.MaxInt64 {
		t.Errorf("Int64 = %d, want MaxInt64", got)
	}
	if got := d.Uint32(); got != math.MaxUint32 {
		t.Errorf("Uint32 = %d, want MaxUint32", got)
	}
	if got := d.Byte(); got != 0xAB {
		t.Errorf("Byte = %#x, want 0xAB", got)
	}
	if got := d.Float64(); got != 3.14159 {
		t.Errorf("Float64 = %g, want 3.14159", got)
	}
	if got := d.Float64(); !math.IsInf(got, -1) {
		t.Errorf("Float64 = %g, want -Inf", got)
	}
	if got := d.Bytes16(); string(got) != "\x01\x02\x03" {
		t.Errorf("Bytes16 = %v", got)
	}
	if got := d.String(); got != "hello, 世界" {
		t.Errorf("String = %q", got)
	}
	if got := d.String(); got != "" {
		t.Errorf("String = %q, want empty", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestDecoderShortBuffer(t *testing.T) {
	cases := []struct {
		name string
		buf  []byte
		read func(*Decoder)
	}{
		{"empty uvarint", nil, func(d *Decoder) { d.Uint64() }},
		{"empty varint", nil, func(d *Decoder) { d.Int64() }},
		{"empty byte", nil, func(d *Decoder) { d.Byte() }},
		{"truncated float", []byte{1, 2, 3}, func(d *Decoder) { d.Float64() }},
		{"truncated bytes", []byte{5, 1, 2}, func(d *Decoder) { d.Bytes16() }},
		{"truncated string", []byte{9}, func(d *Decoder) { _ = d.String() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDecoder(tc.buf)
			tc.read(d)
			if !errors.Is(d.Err(), ErrShortBuffer) {
				t.Errorf("Err = %v, want ErrShortBuffer", d.Err())
			}
		})
	}
}

func TestDecoderVarintOverflow(t *testing.T) {
	// 10 continuation bytes followed by a value byte overflow 64 bits.
	buf := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}
	d := NewDecoder(buf)
	d.Uint64()
	if !errors.Is(d.Err(), ErrOverflow) {
		t.Errorf("Err = %v, want ErrOverflow", d.Err())
	}
}

func TestDecoderUint32Overflow(t *testing.T) {
	e := &Encoder{}
	e.Uint64(math.MaxUint32 + 1)
	d := NewDecoder(e.buf)
	d.Uint32()
	if d.Err() == nil {
		t.Error("Uint32 accepted a 33-bit value")
	}
}

func TestDecoderLengthLimit(t *testing.T) {
	e := &Encoder{}
	e.Uint64(MaxSliceLen + 1)
	d := NewDecoder(e.buf)
	d.Length()
	if !errors.Is(d.Err(), ErrBadLength) {
		t.Errorf("Err = %v, want ErrBadLength", d.Err())
	}
}

func TestDecoderErrorSticky(t *testing.T) {
	d := NewDecoder(nil)
	d.Byte() // fails
	first := d.Err()
	if first == nil {
		t.Fatal("expected error from empty buffer")
	}
	// Subsequent reads return zero values and keep the first error.
	if v := d.Uint64(); v != 0 {
		t.Errorf("Uint64 after error = %d, want 0", v)
	}
	if v := d.Float64(); v != 0 {
		t.Errorf("Float64 after error = %g, want 0", v)
	}
	if b := d.Bytes16(); b != nil {
		t.Errorf("Bytes16 after error = %v, want nil", b)
	}
	if d.Err() != first {
		t.Errorf("error replaced: %v -> %v", first, d.Err())
	}
}

func TestDecoderFinishTrailing(t *testing.T) {
	d := NewDecoder([]byte{1, 2, 3})
	d.Byte()
	if err := d.Finish(); !errors.Is(err, ErrTrailingBytes) {
		t.Errorf("Finish = %v, want ErrTrailingBytes", err)
	}
}

func TestBytes16Aliasing(t *testing.T) {
	e := &Encoder{}
	e.String("abc")
	e.Byte(0x7F)
	d := NewDecoder(e.buf)
	b := d.Bytes16()
	// The returned slice must have capacity clamped so appends cannot
	// clobber adjacent frame bytes.
	b = append(b, 'X')
	if d.Byte() != 0x7F {
		t.Error("append to decoded slice corrupted following payload")
	}
}

func TestUvarintRoundTripProperty(t *testing.T) {
	f := func(v uint64) bool {
		e := &Encoder{}
		e.Uint64(v)
		d := NewDecoder(e.buf)
		return d.Uint64() == v && d.Finish() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVarintRoundTripProperty(t *testing.T) {
	f := func(v int64) bool {
		e := &Encoder{}
		e.Int64(v)
		d := NewDecoder(e.buf)
		return d.Int64() == v && d.Finish() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFloat64RoundTripProperty(t *testing.T) {
	f := func(v float64) bool {
		e := &Encoder{}
		e.Float64(v)
		d := NewDecoder(e.buf)
		got := d.Float64()
		if math.IsNaN(v) {
			return math.IsNaN(got)
		}
		return got == v && d.Finish() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		e := &Encoder{}
		e.String(s)
		d := NewDecoder(e.buf)
		return d.String() == s && d.Finish() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMixedSequenceProperty(t *testing.T) {
	f := func(a uint64, b int64, c float64, s string, raw []byte) bool {
		e := &Encoder{}
		e.Uint64(a)
		e.Int64(b)
		e.Float64(c)
		e.String(s)
		e.String(string(raw))
		d := NewDecoder(e.buf)
		if d.Uint64() != a || d.Int64() != b {
			return false
		}
		gc := d.Float64()
		if math.IsNaN(c) {
			if !math.IsNaN(gc) {
				return false
			}
		} else if gc != c {
			return false
		}
		if d.String() != s {
			return false
		}
		gr := d.Bytes16()
		if len(gr) != len(raw) {
			return false
		}
		for i := range gr {
			if gr[i] != raw[i] {
				return false
			}
		}
		return d.Finish() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
