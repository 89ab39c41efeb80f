// Package snapshot implements the binary codec behind resumable
// simulations: a compact, versioned, digest-tagged serialization of
// mid-run simulator state (see sim.Engine.Restore and DESIGN.md S25).
//
// The format is deliberately primitive — varint scalars appended to a flat
// byte slice, length-prefixed nested sections — because encoding runs on
// the simulation hot path (a snapshot every few hundred thousand events)
// and decoding must be safe against arbitrary corruption: every read is
// bounds-checked, errors are sticky, and a sealed blob carries a SHA-256
// trailer over everything before it, so a truncated or bit-flipped snapshot
// is rejected before any field reaches the engine. One type, Codec, walks
// the format in both directions.
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
)

// FormatVersion is the current snapshot format. Bump it on any layout
// change; Open still succeeds on old blobs (the digest says the bytes are
// intact) and the engine rejects the version mismatch with ErrVersion.
const FormatVersion = 7

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

// Codec walks one layout in either direction: a Writer appends each field
// it is handed to a growing buffer and never writes through the pointer; a
// Reader reads each field back into place from a byte slice. Describing a
// layout once keeps its two directions from drifting apart. Decoding is
// bounds-checked and its errors are sticky: after the first failure every
// field decodes as its zero value and Err reports the cause, so a layout
// can defer error handling to a single check.
type Codec struct {
	buf []byte
	off int
	err error
	dec bool
}

// Writer returns a Codec that encodes into a fresh buffer.
func Writer() *Codec { return &Codec{} }

// Reader returns a Codec that decodes b in place (aliased, not copied).
func Reader(b []byte) *Codec { return &Codec{buf: b, dec: true} }

// Bytes returns the encoded buffer (aliased, not copied).
func (c *Codec) Bytes() []byte { return c.buf }

// Decoding reports whether c reads (restores) rather than writes.
func (c *Codec) Decoding() bool { return c.dec }

// Err returns the first decode failure, or nil (always nil when encoding).
func (c *Codec) Err() error { return c.err }

// Finish returns the sticky error, or ErrCorrupt when intact trailing bytes
// remain — a layout longer than its consumer expects is as wrong as one
// too short.
func (c *Codec) Finish() error {
	if c.err == nil && c.dec && c.off != len(c.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(c.buf)-c.off)
	}
	return c.err
}

// fail records the first error.
func (c *Codec) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Failf records a formatted field-level ErrCorrupt while decoding, for
// layouts that discover semantic inconsistencies (bad enum, length
// mismatch) beyond the codec's structural checks. It is a no-op when
// encoding, so layout code can validate unconditionally.
func (c *Codec) Failf(format string, args ...any) {
	if c.dec {
		c.fail(fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...)))
	}
}

// remaining returns the number of unread bytes.
func (c *Codec) remaining() int { return len(c.buf) - c.off }

// U8 walks one byte.
func (c *Codec) U8(v *uint8) {
	switch {
	case !c.dec:
		c.buf = append(c.buf, *v)
	case c.err == nil && c.off < len(c.buf):
		*v = c.buf[c.off]
		c.off++
	default:
		c.fail(ErrTruncated)
		*v = 0
	}
}

// Bool walks a boolean as one byte; decoding any byte other than 0 or 1 is
// corrupt.
func (c *Codec) Bool(v *bool) {
	var b uint8
	if *v {
		b = 1
	}
	if c.U8(&b); c.dec {
		if b > 1 {
			c.Failf("bool out of range")
		}
		*v = b == 1
	}
}

// U64 walks an unsigned varint.
func (c *Codec) U64(v *uint64) {
	if !c.dec {
		c.buf = binary.AppendUvarint(c.buf, *v)
		return
	}
	*v = 0
	if c.err != nil {
		return
	}
	x, n := binary.Uvarint(c.buf[c.off:])
	if n <= 0 {
		c.fail(fmt.Errorf("%w: uvarint", ErrTruncated))
		return
	}
	c.off += n
	*v = x
}

// i64 walks a signed (zigzag) varint.
func (c *Codec) i64(v *int64) {
	if !c.dec {
		c.buf = binary.AppendVarint(c.buf, *v)
		return
	}
	*v = 0
	if c.err != nil {
		return
	}
	x, n := binary.Varint(c.buf[c.off:])
	if n <= 0 {
		c.fail(fmt.Errorf("%w: varint", ErrTruncated))
		return
	}
	c.off += n
	*v = x
}

// Fix64 walks a uint64 as fixed 8 little-endian bytes (RNG state words,
// which varints would inflate).
func (c *Codec) Fix64(v *uint64) {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, *v)
		return
	}
	*v = 0
	if c.err != nil {
		return
	}
	if c.remaining() < 8 {
		c.fail(fmt.Errorf("%w: fixed64", ErrTruncated))
		return
	}
	*v = binary.LittleEndian.Uint64(c.buf[c.off:])
	c.off += 8
}

// F64 walks a float64 as the fixed 8 bytes of its IEEE-754 representation,
// preserving every bit pattern (including -0 and NaN payloads).
func (c *Codec) F64(v *float64) {
	bits := math.Float64bits(*v)
	if c.Fix64(&bits); c.dec {
		*v = math.Float64frombits(bits)
	}
}

// Raw walks len(b) verbatim bytes with no length prefix (fixed-size
// digests): encoding appends b, decoding fills it, and zeroes it after an
// error.
func (c *Codec) Raw(b []byte) {
	if !c.dec {
		c.buf = append(c.buf, b...)
		return
	}
	if c.err == nil && c.remaining() < len(b) {
		c.fail(fmt.Errorf("%w: raw %d bytes", ErrTruncated, len(b)))
	}
	if c.err != nil {
		clear(b)
		return
	}
	c.off += copy(b, c.buf[c.off:])
}

// Blob walks a length-prefixed byte string. Decoding aliases the input; a
// length longer than the bytes left is ErrTruncated and allocates nothing.
func (c *Codec) Blob(v *[]byte) {
	n := uint64(len(*v))
	c.U64(&n)
	if !c.dec {
		c.buf = append(c.buf, *v...)
		return
	}
	*v = nil
	if c.err != nil {
		return
	}
	if n > uint64(c.remaining()) {
		c.fail(fmt.Errorf("%w: byte string of %d with %d remaining", ErrTruncated, n, c.remaining()))
		return
	}
	*v = c.buf[c.off : c.off+int(n) : c.off+int(n)]
	c.off += int(n)
}

// Str walks a length-prefixed string.
func (c *Codec) Str(v *string) {
	if !c.dec {
		c.buf = binary.AppendUvarint(c.buf, uint64(len(*v)))
		c.buf = append(c.buf, *v...)
		return
	}
	var b []byte
	c.Blob(&b)
	*v = string(b)
}

// Len walks a collection length: encoding writes n and returns it;
// decoding reads it back, rejecting a negative length or one longer than
// the bytes left (every element takes at least one), and returns 0 on
// error.
func (c *Codec) Len(n int) int {
	Int(c, &n)
	if c.dec && c.err == nil && (n < 0 || n > c.remaining()) {
		c.Failf("length %d with %d bytes left", n, c.remaining())
	}
	if c.err != nil {
		return 0
	}
	return n
}

// Int walks any int-kinded value (times, durations, counters, IDs) as a
// signed varint.
func Int[T ~int64 | ~int32 | ~int](c *Codec, v *T) {
	x := int64(*v)
	if c.i64(&x); c.dec {
		*v = T(x)
	}
}

// Slice walks a length-prefixed slice of an int-kinded type. want >= 0
// pins the decoded length (slices sized by rank count); -1 accepts any. A
// nil slice decodes as empty.
func Slice[T ~int64 | ~int32 | ~int](c *Codec, v *[]T, want int) {
	n := c.Len(len(*v))
	if c.dec {
		if want >= 0 && n != want {
			c.Failf("slice length %d, want %d", n, want)
			n = 0
		}
		*v = make([]T, n)
	}
	for i := range *v {
		Int(c, &(*v)[i])
	}
}

// Section walks a length-prefixed nested section through fn. Decoding
// returns fn's decode failure, or ErrCorrupt if fn leaves bytes unread — a
// section longer than its consumer expects is as wrong as one too short.
func (c *Codec) Section(fn func(*Codec)) error {
	sub := &Codec{dec: c.dec}
	if !c.dec {
		fn(sub)
		c.Blob(&sub.buf)
		return nil
	}
	if c.Blob(&sub.buf); c.err != nil {
		return nil
	}
	fn(sub)
	return sub.Finish()
}
