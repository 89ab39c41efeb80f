package snapshot

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"checkpointsim/internal/simtime"
)

// TestPrimitiveRoundTrip drives every encoder primitive through its decoder
// counterpart, including the values varint/zigzag/IEEE-754 edge on.
func TestPrimitiveRoundTrip(t *testing.T) {
	var e Encoder
	e.U8(0)
	e.U8(255)
	e.Bool(true)
	e.Bool(false)
	e.U64(0)
	e.U64(math.MaxUint64)
	e.I64(0)
	e.I64(math.MinInt64)
	e.I64(math.MaxInt64)
	e.Int(-42)
	e.F64(0)
	e.F64(math.Copysign(0, -1))
	e.F64(math.Inf(1))
	e.F64(math.Float64frombits(0x7ff8000000000001)) // NaN with payload
	e.Fix64(0xdeadbeefcafebabe)
	e.Raw([]byte{1, 2, 3})
	e.BytesLP(nil)
	e.BytesLP([]byte("blob"))
	e.Str("")
	e.Str("reason:checkpoint")
	e.Time(simtime.Time(123456789))
	e.Dur(simtime.Duration(-5))

	d := NewDecoder(e.Bytes())
	check := func(name string, ok bool) {
		t.Helper()
		if !ok {
			t.Errorf("%s did not round-trip (err=%v)", name, d.Err())
		}
	}
	check("u8", d.U8() == 0)
	check("u8 max", d.U8() == 255)
	check("bool true", d.Bool() == true)
	check("bool false", d.Bool() == false)
	check("u64 zero", d.U64() == 0)
	check("u64 max", d.U64() == math.MaxUint64)
	check("i64 zero", d.I64() == 0)
	check("i64 min", d.I64() == math.MinInt64)
	check("i64 max", d.I64() == math.MaxInt64)
	check("int", d.Int() == -42)
	check("f64 zero", d.F64() == 0)
	if v := d.F64(); !(v == 0 && math.Signbit(v)) {
		t.Errorf("negative zero did not survive: %v", v)
	}
	check("f64 inf", math.IsInf(d.F64(), 1))
	if bits := math.Float64bits(d.F64()); bits != 0x7ff8000000000001 {
		t.Errorf("NaN payload not preserved: %#x", bits)
	}
	check("fix64", d.Fix64() == 0xdeadbeefcafebabe)
	check("raw", string(d.Raw(3)) == "\x01\x02\x03")
	check("byteslp nil", len(d.BytesLP()) == 0)
	check("byteslp", string(d.BytesLP()) == "blob")
	check("str empty", d.Str() == "")
	check("str", d.Str() == "reason:checkpoint")
	check("time", d.Time() == simtime.Time(123456789))
	check("dur", d.Dur() == simtime.Duration(-5))
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish after exact consumption: %v", err)
	}
}

func TestI64SliceRoundTrip(t *testing.T) {
	var e Encoder
	EncodeI64Slice(&e, []simtime.Time{1, 2, 3})
	EncodeI64Slice[int64](&e, nil)
	d := NewDecoder(e.Bytes())
	got := DecodeI64Slice[simtime.Time](d, 3)
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("slice round-trip: %v (err %v)", got, d.Err())
	}
	if ev := DecodeI64Slice[int64](d, -1); len(ev) != 0 || d.Err() != nil {
		t.Fatalf("nil slice round-trip: %v (err %v)", ev, d.Err())
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}

	// Pinned-length mismatch is corrupt, not silently accepted.
	d = NewDecoder(e.Bytes())
	if DecodeI64Slice[simtime.Time](d, 4); !errors.Is(d.Err(), ErrCorrupt) {
		t.Errorf("length mismatch err = %v, want ErrCorrupt", d.Err())
	}
}

// TestStickyErrors: after the first failure every further read returns a
// zero value and the original error is retained.
func TestStickyErrors(t *testing.T) {
	d := NewDecoder([]byte{})
	if v := d.U8(); v != 0 || !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("read past end: v=%d err=%v", v, d.Err())
	}
	first := d.Err()
	if d.I64() != 0 || d.Str() != "" || d.F64() != 0 || d.Raw(1) != nil {
		t.Error("reads after failure returned non-zero values")
	}
	if d.Err() != first {
		t.Errorf("first error not retained: %v -> %v", first, d.Err())
	}
}

func TestBoolOutOfRange(t *testing.T) {
	d := NewDecoder([]byte{2})
	if d.Bool(); !errors.Is(d.Err(), ErrCorrupt) {
		t.Errorf("bool byte 2: err = %v, want ErrCorrupt", d.Err())
	}
}

func TestFinishTrailingBytes(t *testing.T) {
	var e Encoder
	e.U8(7)
	e.U8(8)
	d := NewDecoder(e.Bytes())
	d.U8()
	if err := d.Finish(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Finish with trailing bytes: %v, want ErrCorrupt", err)
	}
}

// TestBytesLPOverlongLength: a length prefix exceeding the remaining bytes
// is truncation, and must not attempt a giant allocation.
func TestBytesLPOverlongLength(t *testing.T) {
	var e Encoder
	e.U64(1 << 60)
	d := NewDecoder(e.Bytes())
	if b := d.BytesLP(); b != nil || !errors.Is(d.Err(), ErrTruncated) {
		t.Errorf("overlong byte string: b=%v err=%v", b, d.Err())
	}
}

func TestSectionIsolation(t *testing.T) {
	var e Encoder
	e.Section(func(sub *Encoder) { sub.I64(41); sub.Str("inner") })
	e.I64(99)
	d := NewDecoder(e.Bytes())
	sub := d.Section()
	if sub.I64() != 41 || sub.Str() != "inner" || sub.Finish() != nil {
		t.Fatal("section contents did not round-trip")
	}
	if d.I64() != 99 || d.Finish() != nil {
		t.Fatal("outer stream corrupted by section")
	}
}

// TestSealOpen covers the framing error taxonomy end to end.
func TestSealOpen(t *testing.T) {
	payload := []byte("engine state goes here")
	blob := Seal(FormatVersion, payload)

	v, got, err := Open(blob)
	if err != nil || v != FormatVersion || string(got) != string(payload) {
		t.Fatalf("Open(Seal(...)): v=%d payload=%q err=%v", v, got, err)
	}

	// Truncation at every prefix length.
	for n := 0; n < len(blob); n++ {
		if _, _, err := Open(blob[:n]); err == nil {
			t.Fatalf("Open accepted a %d-byte prefix of a %d-byte blob", n, len(blob))
		}
	}
	// Every single-bit flip is caught by magic or digest checking.
	for i := 0; i < len(blob); i++ {
		for bit := 0; bit < 8; bit++ {
			bad := append([]byte(nil), blob...)
			bad[i] ^= 1 << bit
			if _, _, err := Open(bad); err == nil {
				t.Fatalf("Open accepted blob with bit %d of byte %d flipped", bit, i)
			}
		}
	}

	if _, _, err := Open([]byte("not a snapshot, definitely not one " + string(make([]byte, 64)))); !errors.Is(err, ErrMagic) {
		t.Errorf("bad magic: %v", err)
	}
	bad := append([]byte(nil), blob...)
	bad[len(bad)-1] ^= 0x80
	if _, _, err := Open(bad); !errors.Is(err, ErrDigest) {
		t.Errorf("flipped digest byte: %v", err)
	}
	// A different sealed version opens fine (digest is intact); the caller
	// compares against FormatVersion.
	if v, _, err := Open(Seal(FormatVersion+7, payload)); err != nil || v != FormatVersion+7 {
		t.Errorf("future version: v=%d err=%v", v, err)
	}
}

// codecState is a layout walked by one function in both directions.
type codecState struct {
	ok    bool
	b     uint8
	seq   uint64
	fix   uint64
	f     float64
	name  string
	t     simtime.Time
	list  []simtime.Duration
	items []int
	inner int64
}

func (s *codecState) walk(c *Codec) error {
	c.Bool(&s.ok)
	c.U8(&s.b)
	c.U64(&s.seq)
	c.Fix64(&s.fix)
	c.F64(&s.f)
	c.Str(&s.name)
	Int(c, &s.t)
	Slice(c, &s.list, 3)
	if n := c.Len(len(s.items)); c.Decoding() {
		s.items = make([]int, n)
	}
	for i := range s.items {
		Int(c, &s.items[i])
	}
	return c.Section(func(sc *Codec) { Int(sc, &s.inner) })
}

// TestCodecRoundTrip: one walk function writes a state and reads it back
// unchanged, and the reading side enforces lengths and section bounds.
func TestCodecRoundTrip(t *testing.T) {
	want := codecState{ok: true, b: 7, seq: math.MaxUint64, fix: 1 << 63, f: math.Copysign(0, -1),
		name: "store", t: -5, list: []simtime.Duration{1, 2, 3}, items: []int{4, -5}, inner: 99}
	var e Encoder
	if err := want.walk(Writer(&e)); err != nil {
		t.Fatal(err)
	}
	var got codecState
	d := NewDecoder(e.Bytes())
	if err := got.walk(Reader(d)); err != nil {
		t.Fatal(err)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if got.name != want.name || got.t != want.t || got.inner != want.inner || got.seq != want.seq ||
		got.fix != want.fix || math.Float64bits(got.f) != math.Float64bits(want.f) || !got.ok || got.b != 7 ||
		len(got.list) != 3 || got.list[2] != 3 || len(got.items) != 2 || got.items[1] != -5 {
		t.Errorf("round trip: got %+v, want %+v", got, want)
	}

	// A length longer than the bytes left is corrupt, not an allocation.
	var long Encoder
	long.Int(1 << 40)
	if n := Reader(NewDecoder(long.Bytes())).Len(0); n != 0 {
		t.Errorf("overlong length decoded as %d", n)
	}
	// A section its consumer does not read to the end is corrupt.
	var sec Encoder
	Writer(&sec).Section(func(sc *Codec) { sc.Str(new(string)); sc.Str(new(string)) })
	err := Reader(NewDecoder(sec.Bytes())).Section(func(sc *Codec) { sc.Str(new(string)) })
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("half-read section: %v, want ErrCorrupt", err)
	}
	// Failf is a no-op when writing, so layouts can validate unconditionally.
	w := Writer(&Encoder{})
	w.Failf("ignored")
	if w.Err() != nil || w.Decoding() {
		t.Error("writer recorded a failure")
	}
}

// TestWriteFile: WriteFile replaces the target in one step and leaves no
// temp file behind, on success and on failure.
func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	name := filepath.Join(dir, "a.ckpt")
	for _, data := range []string{"first", "second, longer"} {
		if err := WriteFile(name, []byte(data)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(name); err != nil || string(got) != data {
			t.Fatalf("read back %q, %v; want %q", got, err, data)
		}
	}
	// The rename fails when the target is a non-empty directory.
	if err := os.MkdirAll(filepath.Join(dir, "busy", "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(filepath.Join(dir, "busy"), []byte("blob")); err == nil {
		t.Fatal("WriteFile over a non-empty directory succeeded")
	}
	if err := WriteFile(filepath.Join(dir, "missing", "b.ckpt"), []byte("blob")); err == nil {
		t.Fatal("WriteFile into a missing directory succeeded")
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(left) != 0 {
		t.Fatalf("temp files left behind: %v", left)
	}
}
