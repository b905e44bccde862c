package spec

import (
	"encoding"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// canonicalJSON renders v as canonical JSON in one typed pass: struct
// fields in sorted key order, no insignificant whitespace, and every
// leaf exactly as encoding/json writes it, so the bytes equal those of a
// json.Marshal re-emitted with sorted keys and its number literals kept
// verbatim. Strings carry encoding/json's HTML escaping; an invalid
// UTF-8 byte becomes U+FFFD. Floats follow its rule: shortest
// round-trip digits, in exponent form below 1e-6 and from 1e21. A nil
// slice or pointer is null. NaN and infinities are an error, as is any
// kind the wire types do not use: maps, interfaces, arrays, []byte,
// embedded fields and types with their own JSON or text marshaling.
func canonicalJSON(v any) ([]byte, error) {
	b, err := appendCanonical(make([]byte, 0, 1024), reflect.ValueOf(v))
	if err != nil {
		return nil, fmt.Errorf("spec: canonical JSON: %w", err)
	}
	return b, nil
}

// appendCanonical appends v's canonical encoding to b.
func appendCanonical(b []byte, v reflect.Value) ([]byte, error) {
	switch v.Kind() {
	case reflect.Struct:
		fields, err := fieldPlan(v.Type())
		if err != nil {
			return b, err
		}
		b = append(b, '{')
		first := true
		for _, f := range fields {
			fv := v.Field(f.index)
			if f.omitEmpty && isEmpty(fv) {
				continue
			}
			if !first {
				b = append(b, ',')
			}
			first = false
			b = append(b, f.key...)
			if b, err = appendCanonical(b, fv); err != nil {
				return b, err
			}
		}
		return append(b, '}'), nil
	case reflect.Pointer:
		if v.IsNil() {
			return append(b, "null"...), nil
		}
		return appendCanonical(b, v.Elem())
	case reflect.Slice:
		if v.IsNil() {
			return append(b, "null"...), nil
		}
		b = append(b, '[')
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendCanonical(b, v.Index(i)); err != nil {
				return b, err
			}
		}
		return append(b, ']'), nil
	case reflect.String:
		return appendString(b, v.String()), nil
	case reflect.Bool:
		return strconv.AppendBool(b, v.Bool()), nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return strconv.AppendInt(b, v.Int(), 10), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return strconv.AppendUint(b, v.Uint(), 10), nil
	case reflect.Float64:
		return appendFloat(b, v.Float())
	}
	return b, fmt.Errorf("unsupported %s value of type %s", v.Kind(), v.Type())
}

// isEmpty reports whether omitempty leaves v out, by encoding/json's
// rule: false, zero (negative zero too), nil, or of length zero. A
// struct is never empty.
func isEmpty(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Slice, reflect.String:
		return v.Len() == 0
	case reflect.Bool:
		return !v.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return v.Int() == 0
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return v.Uint() == 0
	case reflect.Float64:
		return isZero(v.Float())
	case reflect.Pointer:
		return v.IsNil()
	}
	return false
}

// canonicalField is one encoded field of a struct: its index, its JSON
// name, that name quoted and followed by ':', and whether an empty value
// is left out.
type canonicalField struct {
	index     int
	name, key string
	omitEmpty bool
}

// fieldPlans caches fieldPlan's []canonicalField per struct type.
var fieldPlans sync.Map

// fieldPlan returns the encoded fields of struct type t sorted by name,
// built once per type: every exported field whose json tag is not "-",
// under the tag's name or else the field name, with omitempty the only
// tag option allowed. Every field's type is checked here, so encoding
// meets no unsupported kind in a struct field.
func fieldPlan(t reflect.Type) ([]canonicalField, error) {
	if p, ok := fieldPlans.Load(t); ok {
		return p.([]canonicalField), nil
	}
	if err := checkCanonicalType(t); err != nil {
		return nil, err
	}
	var fields []canonicalField
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		if sf.Anonymous {
			return nil, fmt.Errorf("%s.%s: embedded fields are not supported", t, sf.Name)
		}
		tag := sf.Tag.Get("json")
		if !sf.IsExported() || tag == "-" {
			continue
		}
		name, opts, _ := strings.Cut(tag, ",")
		if opts != "" && opts != "omitempty" {
			return nil, fmt.Errorf("%s.%s: json tag option %q is not supported", t, sf.Name, opts)
		}
		if name == "" {
			name = sf.Name
		}
		if err := checkCanonicalType(sf.Type); err != nil {
			return nil, fmt.Errorf("%s.%s: %w", t, sf.Name, err)
		}
		fields = append(fields, canonicalField{
			index:     i,
			name:      name,
			key:       string(appendString(nil, name)) + ":",
			omitEmpty: opts == "omitempty",
		})
	}
	sort.Slice(fields, func(i, j int) bool { return fields[i].name < fields[j].name })
	for i := 1; i < len(fields); i++ {
		if fields[i].name == fields[i-1].name {
			return nil, fmt.Errorf("%s: two fields named %q", t, fields[i].name)
		}
	}
	fieldPlans.Store(t, fields)
	return fields, nil
}

var (
	jsonMarshaler = reflect.TypeOf((*json.Marshaler)(nil)).Elem()
	textMarshaler = reflect.TypeOf((*encoding.TextMarshaler)(nil)).Elem()
)

// checkCanonicalType rejects a type appendCanonical would encode
// differently from encoding/json: one with its own marshaling, []byte
// (base64 there), or a kind appendCanonical does not handle. Pointer and
// slice element types are checked too; a struct's fields are checked by
// its own plan.
func checkCanonicalType(t reflect.Type) error {
	for _, m := range []reflect.Type{jsonMarshaler, textMarshaler} {
		if t.Implements(m) || reflect.PointerTo(t).Implements(m) {
			return fmt.Errorf("%s implements %s", t, m)
		}
	}
	switch t.Kind() {
	case reflect.Pointer:
		return checkCanonicalType(t.Elem())
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			return fmt.Errorf("%s encodes as base64", t)
		}
		return checkCanonicalType(t.Elem())
	case reflect.Struct, reflect.String, reflect.Bool, reflect.Float64,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return nil
	}
	return fmt.Errorf("unsupported kind %s (%s)", t.Kind(), t)
}

// appendFloat appends f as encoding/json writes a float64.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, fmt.Errorf("unsupported value %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); !isZero(f) && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// isZero reports whether f is zero of either sign, by its bits: shifting
// out the sign leaves none set.
func isZero(f float64) bool { return math.Float64bits(f)<<1 == 0 }

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way encoding/json escapes
// it: '"' and '\\' backslashed, \b \f \n \r \t by name, other control
// bytes, '<', '>', '&', U+2028 and U+2029 as \u escapes. An invalid
// UTF-8 byte is written as U+FFFD itself, not the \ufffd escape
// json.Marshal gives it, because the canonical form is the string
// decoded and encoded again.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = utf8.AppendRune(b, utf8.RuneError)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
