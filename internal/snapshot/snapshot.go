// Package snapshot implements the binary codec behind resumable
// simulations: a compact, versioned, digest-tagged serialization of
// mid-run simulator state (see sim.Engine.Restore and DESIGN.md S25).
//
// The format is deliberately primitive — varint scalars appended to a flat
// byte slice, length-prefixed nested sections — because the encoder runs on
// the simulation hot path (a snapshot every few hundred thousand events)
// and the decoder must be safe against arbitrary corruption: every read is
// bounds-checked, errors are sticky, and a sealed blob carries a SHA-256
// trailer over everything before it, so a truncated or bit-flipped snapshot
// is rejected before any field reaches the engine.
//
// # Framing
//
// A sealed blob is
//
//	magic "CKSNAP1\n" | uvarint format version | payload | SHA-256(prefix)
//
// Seal produces it, Open verifies structure and digest and returns the
// version and payload. Version compatibility is the caller's decision
// (compare against FormatVersion); the codec only guarantees the bytes are
// exactly what was sealed.
package snapshot

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"checkpointsim/internal/simtime"
)

// FormatVersion is the current snapshot format. Bump it on any layout
// change; Open still succeeds on old blobs (the digest says the bytes are
// intact) and the engine rejects the version mismatch with ErrVersion.
const FormatVersion = 3

// magic identifies a sealed snapshot blob.
const magic = "CKSNAP1\n"

// Decode errors. All corruption paths return errors wrapping one of these —
// never a panic — so a damaged snapshot degrades to a cold restart.
var (
	// ErrTruncated marks a blob or field cut short.
	ErrTruncated = errors.New("snapshot: truncated")
	// ErrMagic marks a blob that is not a snapshot at all.
	ErrMagic = errors.New("snapshot: bad magic")
	// ErrDigest marks a blob whose SHA-256 trailer does not match its
	// contents — bit rot, torn write, or tampering.
	ErrDigest = errors.New("snapshot: digest mismatch")
	// ErrVersion marks a structurally intact blob written by an
	// incompatible format version.
	ErrVersion = errors.New("snapshot: unsupported format version")
	// ErrCorrupt marks a field-level inconsistency inside a verified blob
	// (overlong length, out-of-range enum, trailing garbage). Reaching it
	// means a digest-intact blob disagrees with the decoder's expectations
	// — an encoder/decoder bug, not storage damage.
	ErrCorrupt = errors.New("snapshot: corrupt field")
)

// WriteFile writes data to name atomically: to a temp file in the same
// directory, then a rename over name. A crash at any moment, mid-write
// included, leaves either the previous file or the new one, never a
// truncated blob where a resumable snapshot is expected. The temp file is
// removed on every error path.
func WriteFile(name string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(name), filepath.Base(name)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), name); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Seal frames payload with the magic, the format version, and a SHA-256
// digest over everything before the trailer.
func Seal(version uint64, payload []byte) []byte {
	blob := make([]byte, 0, len(magic)+binary.MaxVarintLen64+len(payload)+sha256.Size)
	blob = append(blob, magic...)
	blob = binary.AppendUvarint(blob, version)
	blob = append(blob, payload...)
	sum := sha256.Sum256(blob)
	return append(blob, sum[:]...)
}

// Open verifies a sealed blob's structure and digest and returns its format
// version and payload. The payload aliases blob; callers must not mutate it.
func Open(blob []byte) (version uint64, payload []byte, err error) {
	if len(blob) < len(magic)+1+sha256.Size {
		return 0, nil, fmt.Errorf("%w: %d bytes", ErrTruncated, len(blob))
	}
	if string(blob[:len(magic)]) != magic {
		return 0, nil, ErrMagic
	}
	body, trailer := blob[:len(blob)-sha256.Size], blob[len(blob)-sha256.Size:]
	sum := sha256.Sum256(body)
	if string(sum[:]) != string(trailer) {
		return 0, nil, ErrDigest
	}
	version, n := binary.Uvarint(body[len(magic):])
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: version varint", ErrCorrupt)
	}
	return version, body[len(magic)+n:], nil
}

// Encoder appends primitive values to a growing buffer. The zero value is
// ready to use.
type Encoder struct {
	buf []byte
}

// Bytes returns the encoded buffer (aliased, not copied).
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U64 appends an unsigned varint.
func (e *Encoder) U64(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// I64 appends a signed (zigzag) varint.
func (e *Encoder) I64(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Int appends an int as a signed varint.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// F64 appends a float64 as fixed 8 little-endian bytes of its IEEE-754
// representation, preserving every bit pattern (including -0 and NaNs).
func (e *Encoder) F64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// Fix64 appends a uint64 as fixed 8 little-endian bytes (RNG state words,
// which varints would inflate).
func (e *Encoder) Fix64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// Raw appends b verbatim with no length prefix (fixed-size digests).
func (e *Encoder) Raw(b []byte) { e.buf = append(e.buf, b...) }

// Bytes appends a length-prefixed byte string.
func (e *Encoder) BytesLP(b []byte) {
	e.U64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) {
	e.U64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Time appends a simulated timestamp.
func (e *Encoder) Time(t simtime.Time) { e.I64(int64(t)) }

// Dur appends a simulated duration.
func (e *Encoder) Dur(d simtime.Duration) { e.I64(int64(d)) }

// Section appends a length-prefixed nested section filled by fn, so the
// decoder can verify the consumer reads exactly the bytes the producer
// wrote (agent state sections).
func (e *Encoder) Section(fn func(*Encoder)) {
	var sub Encoder
	fn(&sub)
	e.BytesLP(sub.buf)
}

// Decoder reads values written by Encoder. Errors are sticky: after the
// first failure every read returns a zero value and Err reports the cause,
// so decode paths can defer error handling to a single check.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps b (aliased, not copied).
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the first decode failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Finish returns the sticky error, or ErrCorrupt when intact trailing bytes
// remain — a section longer than its consumer expects is as wrong as one
// too short.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.buf)-d.off)
	}
	return nil
}

// fail records the first error.
func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Failf records a formatted field-level ErrCorrupt, for consumers that
// discover semantic inconsistencies (bad enum, length mismatch) beyond the
// codec's structural checks.
func (d *Decoder) Failf(format string, args ...any) {
	d.fail(fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...)))
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail(ErrTruncated)
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

// Bool reads a boolean; any byte other than 0 or 1 is corrupt.
func (d *Decoder) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.Failf("bool out of range")
		return false
	}
}

// U64 reads an unsigned varint.
func (d *Decoder) U64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail(fmt.Errorf("%w: uvarint", ErrTruncated))
		return 0
	}
	d.off += n
	return v
}

// I64 reads a signed varint.
func (d *Decoder) I64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail(fmt.Errorf("%w: varint", ErrTruncated))
		return 0
	}
	d.off += n
	return v
}

// Int reads an int-sized signed varint.
func (d *Decoder) Int() int { return int(d.I64()) }

// F64 reads a fixed-8 float64.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.Fix64()) }

// Fix64 reads a fixed-8 uint64.
func (d *Decoder) Fix64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail(fmt.Errorf("%w: fixed64", ErrTruncated))
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// Raw reads n verbatim bytes (aliased).
func (d *Decoder) Raw(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.fail(fmt.Errorf("%w: raw %d bytes", ErrTruncated, n))
		return nil
	}
	v := d.buf[d.off : d.off+n]
	d.off += n
	return v
}

// BytesLP reads a length-prefixed byte string (aliased).
func (d *Decoder) BytesLP() []byte {
	n := d.U64()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.Remaining()) {
		d.fail(fmt.Errorf("%w: byte string of %d with %d remaining", ErrTruncated, n, d.Remaining()))
		return nil
	}
	return d.Raw(int(n))
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string { return string(d.BytesLP()) }

// Time reads a simulated timestamp.
func (d *Decoder) Time() simtime.Time { return simtime.Time(d.I64()) }

// Dur reads a simulated duration.
func (d *Decoder) Dur() simtime.Duration { return simtime.Duration(d.I64()) }

// Section reads a length-prefixed nested section as its own decoder.
func (d *Decoder) Section() *Decoder { return NewDecoder(d.BytesLP()) }

// EncodeI64Slice appends a length-prefixed slice of any int64-kinded type
// (simtime.Time, simtime.Duration, int64, interned IDs).
func EncodeI64Slice[T ~int64 | ~int32 | ~int](e *Encoder, v []T) {
	e.Int(len(v))
	for _, x := range v {
		e.I64(int64(x))
	}
}

// DecodeI64Slice reads a slice written by EncodeI64Slice. want >= 0 pins the
// expected length (slices sized by rank count); -1 accepts any. A nil slice
// round-trips as empty.
func DecodeI64Slice[T ~int64 | ~int32 | ~int](d *Decoder, want int) []T {
	n := d.Int()
	if d.Err() != nil {
		return nil
	}
	if n < 0 || (want >= 0 && n != want) || n > d.Remaining() {
		d.Failf("slice length %d (want %d, %d bytes remain)", n, want, d.Remaining())
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = T(d.I64())
	}
	return out
}

// Codec walks one state layout in either direction: built over an Encoder
// (Writer) it appends each field it is handed, built over a Decoder
// (Reader) it reads each field back into place, with the Decoder's sticky
// errors and bounds checks. Describing a layout once keeps its two
// directions from drifting apart.
type Codec struct {
	enc *Encoder
	dec *Decoder
}

// Writer returns a Codec that encodes into enc.
func Writer(enc *Encoder) *Codec { return &Codec{enc: enc} }

// Reader returns a Codec that decodes from dec.
func Reader(dec *Decoder) *Codec { return &Codec{dec: dec} }

// Decoding reports whether c reads (restores) rather than writes.
func (c *Codec) Decoding() bool { return c.dec != nil }

// Err returns the first decode failure, or nil (always nil when encoding).
func (c *Codec) Err() error {
	if c.dec == nil {
		return nil
	}
	return c.dec.Err()
}

// Failf records a field-level ErrCorrupt while decoding; a no-op when
// encoding, so layout code can validate unconditionally.
func (c *Codec) Failf(format string, args ...any) {
	if c.dec != nil {
		c.dec.Failf(format, args...)
	}
}

// Bool walks a boolean.
func (c *Codec) Bool(v *bool) {
	if c.dec != nil {
		*v = c.dec.Bool()
	} else {
		c.enc.Bool(*v)
	}
}

// U8 walks one byte.
func (c *Codec) U8(v *uint8) {
	if c.dec != nil {
		*v = c.dec.U8()
	} else {
		c.enc.U8(*v)
	}
}

// U64 walks an unsigned varint.
func (c *Codec) U64(v *uint64) {
	if c.dec != nil {
		*v = c.dec.U64()
	} else {
		c.enc.U64(*v)
	}
}

// Fix64 walks a fixed-8 uint64.
func (c *Codec) Fix64(v *uint64) {
	if c.dec != nil {
		*v = c.dec.Fix64()
	} else {
		c.enc.Fix64(*v)
	}
}

// F64 walks a float64, bit-exact.
func (c *Codec) F64(v *float64) {
	if c.dec != nil {
		*v = c.dec.F64()
	} else {
		c.enc.F64(*v)
	}
}

// Str walks a length-prefixed string.
func (c *Codec) Str(v *string) {
	if c.dec != nil {
		*v = c.dec.Str()
	} else {
		c.enc.Str(*v)
	}
}

// Len walks a collection length: encoding writes n and returns it;
// decoding reads it back, rejecting a negative length or one longer than
// the bytes left (every element takes at least one), and returns 0 on
// error.
func (c *Codec) Len(n int) int {
	if c.dec == nil {
		c.enc.Int(n)
		return n
	}
	n = c.dec.Int()
	if c.dec.Err() != nil {
		return 0
	}
	if n < 0 || n > c.dec.Remaining() {
		c.dec.Failf("length %d with %d bytes left", n, c.dec.Remaining())
		return 0
	}
	return n
}

// Int walks any int-kinded value (times, durations, counters, IDs) as a
// signed varint.
func Int[T ~int64 | ~int32 | ~int](c *Codec, v *T) {
	if c.dec != nil {
		*v = T(c.dec.I64())
	} else {
		c.enc.I64(int64(*v))
	}
}

// Slice walks a length-prefixed slice of an int-kinded type. want >= 0
// pins the decoded length (slices sized by rank count); -1 accepts any.
func Slice[T ~int64 | ~int32 | ~int](c *Codec, v *[]T, want int) {
	if c.dec == nil {
		EncodeI64Slice(c.enc, *v)
		return
	}
	*v = DecodeI64Slice[T](c.dec, want)
}

// Section walks a length-prefixed nested section through fn. Decoding
// returns fn's decode failure, or ErrCorrupt if fn leaves bytes unread — a
// section longer than its consumer expects is as wrong as one too short.
func (c *Codec) Section(fn func(*Codec)) error {
	if c.dec == nil {
		c.enc.Section(func(sub *Encoder) { fn(Writer(sub)) })
		return nil
	}
	sub := c.dec.Section()
	if c.dec.Err() != nil {
		return nil
	}
	fn(Reader(sub))
	return sub.Finish()
}
