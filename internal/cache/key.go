// Package cache provides the content-addressed result cache behind
// cmd/sweepd: sweep outcomes keyed by a canonical hash of the
// fully-resolved configuration, held under an LRU byte budget, with
// singleflight deduplication so concurrent identical requests compute
// once.
//
// The key side is deliberately generic: a configuration is a flat set of
// (name, value) fields, canonicalized independently of the order the
// caller assembled them in and hashed together with a code-version tag.
// Fields derives that set from a config struct by reflection, so every
// exported knob is keyed unless its declaration opts out with a
// `cache:"-"` tag and a reason; this package owns the guarantee that
// distinct field sets can never collide into one canonical form.
package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// Field is one named configuration value contributing to a cache key.
// Values are pre-rendered strings, each knob formatted exactly once (see
// Fields), so two configs share a key exactly when every rendered field
// matches.
type Field struct {
	Name, Value string
}

// F is a shorthand Field constructor.
func F(name, value string) Field { return Field{Name: name, Value: value} }

// Fields renders every exported field of the struct v as one Field per
// leaf, named by its dotted Go path (Protocol.TwoLevel.LocalInterval).
// Integers render in base 10, floats via strconv 'g' with full precision,
// bools and strings as they are. A nil struct pointer renders as "nil" and
// a non-nil one contributes its fields, so absent and zero-valued
// sub-configs key differently. A field tagged `cache:"-"` is skipped.
//
// Anything else panics: a func, slice, map, chan or interface field, a
// pointer to a non-struct, or an unexported field. Those have no canonical
// rendering, and a knob that cannot be keyed must be rejected at its first
// test rather than silently left out of the address.
func Fields(v any) []Field {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Struct {
		panic(fmt.Sprintf("cache: Fields wants a struct, got %T", v))
	}
	return appendStruct(nil, "", rv)
}

func appendStruct(out []Field, prefix string, v reflect.Value) []Field {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		if sf.Tag.Get("cache") == "-" {
			continue
		}
		name := prefix + sf.Name
		if !sf.IsExported() {
			panic(fmt.Sprintf("cache: unexported field %s of %s cannot be keyed; tag it `cache:\"-\"` if it cannot change results", name, t))
		}
		out = appendValue(out, name, v.Field(i))
	}
	return out
}

func appendValue(out []Field, name string, v reflect.Value) []Field {
	switch v.Kind() {
	case reflect.Struct:
		return appendStruct(out, name+".", v)
	case reflect.Pointer:
		if v.Type().Elem().Kind() != reflect.Struct {
			break
		}
		if v.IsNil() {
			return append(out, F(name, "nil"))
		}
		return appendStruct(out, name+".", v.Elem())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return append(out, F(name, strconv.FormatInt(v.Int(), 10)))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return append(out, F(name, strconv.FormatUint(v.Uint(), 10)))
	case reflect.Float32, reflect.Float64:
		return append(out, F(name, strconv.FormatFloat(v.Float(), 'g', -1, 64)))
	case reflect.Bool:
		return append(out, F(name, strconv.FormatBool(v.Bool())))
	case reflect.String:
		return append(out, F(name, v.String()))
	}
	panic(fmt.Sprintf("cache: field %s of type %s has no canonical rendering; tag it `cache:\"-\"` if it cannot change results", name, v.Type()))
}

// Canonical renders a field set into its canonical encoding: fields sorted
// by (name, value), each name and value length-prefixed. The
// length-prefixing makes the encoding injective — no choice of names and
// values can make two distinct field sets render identically, because
// every byte of every field is attributed unambiguously — and the sort
// makes it independent of assembly order. Duplicate fields are preserved
// (a multiset encoding), so accidentally emitting a field twice changes
// the key rather than silently aliasing.
func Canonical(fields []Field) string {
	sorted := append([]Field(nil), fields...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Name != sorted[j].Name {
			return sorted[i].Name < sorted[j].Name
		}
		return sorted[i].Value < sorted[j].Value
	})
	var sb strings.Builder
	for _, f := range sorted {
		sb.WriteString(strconv.Itoa(len(f.Name)))
		sb.WriteByte(':')
		sb.WriteString(f.Name)
		sb.WriteByte('=')
		sb.WriteString(strconv.Itoa(len(f.Value)))
		sb.WriteByte(':')
		sb.WriteString(f.Value)
		sb.WriteByte(';')
	}
	return sb.String()
}

// Key hashes a code-version tag and a field set into the content address
// used by the cache: hex SHA-256 over the length-prefixed version followed
// by the canonical field encoding. The version tag exists because results
// are a function of the simulator build, not just its knobs — bumping it
// (cmd/sweepd derives it from the module build info) invalidates every
// entry cached by older code without touching the field canonicalization.
func Key(version string, fields []Field) string {
	h := sha256.New()
	h.Write([]byte(strconv.Itoa(len(version))))
	h.Write([]byte(":"))
	h.Write([]byte(version))
	h.Write([]byte("|"))
	h.Write([]byte(Canonical(fields)))
	return hex.EncodeToString(h.Sum(nil))
}
