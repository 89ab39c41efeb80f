package snapshot

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"checkpointsim/internal/simtime"
)

// TestPrimitiveRoundTrip drives every primitive through a write and a read,
// including the values varint/zigzag/IEEE-754 edge on.
func TestPrimitiveRoundTrip(t *testing.T) {
	type prims struct {
		u8       [2]uint8
		bools    [2]bool
		u64      [2]uint64
		i64      [3]int64
		i        int
		f64      [4]float64
		fix      uint64
		raw      [3]byte
		blobs    [2][]byte
		strs     [2]string
		time     simtime.Time
		dur      simtime.Duration
		i32, len int32
	}
	walk := func(c *Codec, p *prims) {
		for i := range p.u8 {
			c.U8(&p.u8[i])
		}
		for i := range p.bools {
			c.Bool(&p.bools[i])
		}
		for i := range p.u64 {
			c.U64(&p.u64[i])
		}
		for i := range p.i64 {
			Int(c, &p.i64[i])
		}
		Int(c, &p.i)
		for i := range p.f64 {
			c.F64(&p.f64[i])
		}
		c.Fix64(&p.fix)
		c.Raw(p.raw[:])
		for i := range p.blobs {
			c.Blob(&p.blobs[i])
		}
		for i := range p.strs {
			c.Str(&p.strs[i])
		}
		Int(c, &p.time)
		Int(c, &p.dur)
		Int(c, &p.i32)
		p.len = int32(c.Len(int(p.len)))
	}
	nan := math.Float64frombits(0x7ff8000000000001) // NaN with payload
	want := prims{
		u8:    [2]uint8{0, 255},
		bools: [2]bool{true, false},
		u64:   [2]uint64{0, math.MaxUint64},
		i64:   [3]int64{0, math.MinInt64, math.MaxInt64},
		i:     -42,
		f64:   [4]float64{0, math.Copysign(0, -1), math.Inf(1), nan},
		fix:   0xdeadbeefcafebabe,
		raw:   [3]byte{1, 2, 3},
		blobs: [2][]byte{nil, []byte("blob")},
		strs:  [2]string{"", "reason:checkpoint"},
		time:  123456789,
		dur:   -5,
		i32:   math.MinInt32,
		len:   0,
	}
	w := Writer()
	in := want
	walk(w, &in)
	if w.Finish() != nil || w.Err() != nil || w.Decoding() {
		t.Fatalf("writer: err %v, decoding %v", w.Err(), w.Decoding())
	}
	var got prims
	r := Reader(w.Bytes())
	walk(r, &got)
	if err := r.Finish(); err != nil {
		t.Fatalf("Finish after exact consumption: %v", err)
	}
	for i, f := range got.f64 {
		if math.Float64bits(f) != math.Float64bits(want.f64[i]) {
			t.Errorf("f64[%d]: bits %#x, want %#x", i, math.Float64bits(f), math.Float64bits(want.f64[i]))
		}
	}
	got.f64, want.f64 = [4]float64{}, [4]float64{}
	if len(got.blobs[0]) != 0 {
		t.Errorf("nil byte string decoded as %q", got.blobs[0])
	}
	got.blobs[0], want.blobs[0] = nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, want)
	}
}

func TestI64SliceRoundTrip(t *testing.T) {
	times, none := []simtime.Time{1, 2, 3}, []int64(nil)
	w := Writer()
	Slice(w, &times, 3)
	Slice(w, &none, -1)

	var gotTimes []simtime.Time
	var gotNone []int64
	r := Reader(w.Bytes())
	if Slice(r, &gotTimes, 3); !reflect.DeepEqual(gotTimes, times) {
		t.Fatalf("slice round-trip: %v (err %v)", gotTimes, r.Err())
	}
	if Slice(r, &gotNone, -1); len(gotNone) != 0 || r.Err() != nil {
		t.Fatalf("nil slice round-trip: %v (err %v)", gotNone, r.Err())
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}

	// Pinned-length mismatch is corrupt, not silently accepted.
	r = Reader(w.Bytes())
	if Slice(r, &gotTimes, 4); !errors.Is(r.Err(), ErrCorrupt) || len(gotTimes) != 0 {
		t.Errorf("length mismatch: %v, err = %v, want ErrCorrupt", gotTimes, r.Err())
	}
}

// TestStickyErrors: after the first failure every further read yields a
// zero value and the original error is retained.
func TestStickyErrors(t *testing.T) {
	r := Reader([]byte{})
	v := uint8(9)
	if r.U8(&v); v != 0 || !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("read past end: v=%d err=%v", v, r.Err())
	}
	first := r.Err()
	i, s, f, raw := int64(7), "x", 1.5, []byte{1}
	Int(r, &i)
	r.Str(&s)
	r.F64(&f)
	r.Raw(raw)
	if i != 0 || s != "" || f != 0 || raw[0] != 0 {
		t.Errorf("reads after failure returned non-zero values: %d %q %v %v", i, s, f, raw)
	}
	if r.Err() != first || r.Finish() != first {
		t.Errorf("first error not retained: %v -> %v", first, r.Err())
	}
}

func TestBoolOutOfRange(t *testing.T) {
	r := Reader([]byte{2})
	if r.Bool(new(bool)); !errors.Is(r.Err(), ErrCorrupt) {
		t.Errorf("bool byte 2: err = %v, want ErrCorrupt", r.Err())
	}
}

func TestFinishTrailingBytes(t *testing.T) {
	r := Reader([]byte{7, 8})
	r.U8(new(uint8))
	if err := r.Finish(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Finish with trailing bytes: %v, want ErrCorrupt", err)
	}
}

// TestBytesLPOverlongLength: a length prefix exceeding the remaining bytes
// is truncation, and must not attempt a giant allocation.
func TestBytesLPOverlongLength(t *testing.T) {
	w := Writer()
	n := uint64(1 << 60)
	w.U64(&n)
	r := Reader(w.Bytes())
	b := []byte("stale")
	if r.Blob(&b); b != nil || !errors.Is(r.Err(), ErrTruncated) {
		t.Errorf("overlong byte string: b=%v err=%v", b, r.Err())
	}
}

// TestSectionIsolation: a section's contents stay inside it, and a sibling
// value after the section survives.
func TestSectionIsolation(t *testing.T) {
	inner, name, after := int64(41), "inner", int64(99)
	w := Writer()
	w.Section(func(sc *Codec) { Int(sc, &inner); sc.Str(&name) })
	Int(w, &after)

	var gotInner, gotAfter int64
	var gotName string
	r := Reader(w.Bytes())
	if err := r.Section(func(sc *Codec) { Int(sc, &gotInner); sc.Str(&gotName) }); err != nil ||
		gotInner != 41 || gotName != "inner" {
		t.Fatalf("section contents did not round-trip: %d %q %v", gotInner, gotName, err)
	}
	if Int(r, &gotAfter); gotAfter != 99 || r.Finish() != nil {
		t.Fatalf("outer stream corrupted by section: %d %v", gotAfter, r.Finish())
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
	w := Writer()
	if err := want.walk(w); err != nil {
		t.Fatal(err)
	}
	var got codecState
	r := Reader(w.Bytes())
	if err := got.walk(r); err != nil {
		t.Fatal(err)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if got.name != want.name || got.t != want.t || got.inner != want.inner || got.seq != want.seq ||
		got.fix != want.fix || math.Float64bits(got.f) != math.Float64bits(want.f) || !got.ok || got.b != 7 ||
		len(got.list) != 3 || got.list[2] != 3 || len(got.items) != 2 || got.items[1] != -5 {
		t.Errorf("round trip: got %+v, want %+v", got, want)
	}

	// A length longer than the bytes left is corrupt, not an allocation.
	long := Writer()
	long.Len(1 << 40)
	if r := Reader(long.Bytes()); r.Len(0) != 0 || !errors.Is(r.Err(), ErrCorrupt) {
		t.Errorf("overlong length: err %v, want ErrCorrupt", r.Err())
	}
	// A section its consumer does not read to the end is corrupt.
	sec := Writer()
	sec.Section(func(sc *Codec) { sc.Str(new(string)); sc.Str(new(string)) })
	err := Reader(sec.Bytes()).Section(func(sc *Codec) { sc.Str(new(string)) })
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("half-read section: %v, want ErrCorrupt", err)
	}
	// Failf is a no-op when writing, so layouts can validate unconditionally.
	w = Writer()
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
