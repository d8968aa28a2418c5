package sortnets

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// Hand-rolled wire codec for the NDJSON hot path. The serve layer
// answers thousands of batch lines per second; reflection-driven
// encoding/json costs several allocations per line on both sides of
// the wire. The encoders here are append-style — they write into a
// caller-owned buffer and allocate nothing — and produce output
// byte-identical to encoding/json for the Request/Verdict wire types
// (same field order, same omitempty decisions, same string escaping
// including HTML-safe < forms, same number formatting), which
// the wire tests assert by differential fuzzing against
// encoding/json. The decoders share one tokenizer: the request form
// is strict (unknown fields and trailing data are errors) and is the
// one Request decoder of both sortnetd transports, single-shot JSON
// bodies and NDJSON lines; the batch-verdict form is lenient (unknown
// fields skipped, matching json.Unmarshal on the client).

// --- Encoding ------------------------------------------------------------

const hexDigits = "0123456789abcdef"

// appendJSONString appends the encoding/json rendering of s: quoted,
// with ", \ and control characters escaped, <, > and & HTML-escaped
// to < forms, invalid UTF-8 escaped as �, and U+2028 /
// U+2029 escaped.
//
//sortnets:hotpath
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				// Control characters and the HTML-sensitive <, >, &.
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == ' ' || c == ' ' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// jsonSafe[b] reports that ASCII byte b passes through a JSON string
// unescaped (encoding/json's default HTML-escaping table).
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for b := 0; b < utf8.RuneSelf; b++ {
		t[b] = b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return
}()

// appendJSONFloat appends encoding/json's float rendering: shortest
// form, 'f' format inside [1e-6, 1e21), 'e' with a trimmed exponent
// outside.
//
//sortnets:hotpath
func appendJSONFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// fieldSep appends the separator before a field: '{' for the first,
// ',' after.
//
//sortnets:hotpath
func fieldSep(dst []byte, first *bool) []byte {
	if *first {
		*first = false
		return append(dst, '{')
	}
	return append(dst, ',')
}

//sortnets:hotpath
func appendStringField(dst []byte, first *bool, name, v string) []byte {
	dst = fieldSep(dst, first)
	dst = append(dst, '"')
	dst = append(dst, name...)
	dst = append(dst, '"', ':')
	return appendJSONString(dst, v)
}

//sortnets:hotpath
func appendIntField(dst []byte, first *bool, name string, v int) []byte {
	dst = fieldSep(dst, first)
	dst = append(dst, '"')
	dst = append(dst, name...)
	dst = append(dst, '"', ':')
	return strconv.AppendInt(dst, int64(v), 10)
}

//sortnets:hotpath
func appendBoolField(dst []byte, first *bool, name string, v bool) []byte {
	dst = fieldSep(dst, first)
	dst = append(dst, '"')
	dst = append(dst, name...)
	dst = append(dst, '"', ':')
	return strconv.AppendBool(dst, v)
}

// AppendRequest appends the JSON encoding of r, byte-identical to
// json.Marshal(r), and returns the extended buffer. The client's
// NDJSON encoder uses it to build batch bodies without per-line
// reflection.
//
//sortnets:hotpath
func AppendRequest(dst []byte, r *Request) []byte {
	first := true
	if r.ID != "" {
		dst = appendStringField(dst, &first, "id", r.ID)
	}
	if r.Op != "" {
		dst = appendStringField(dst, &first, "op", r.Op)
	}
	if r.Network != "" {
		dst = appendStringField(dst, &first, "network", r.Network)
	}
	if r.Lines != 0 {
		dst = appendIntField(dst, &first, "lines", r.Lines)
	}
	if len(r.Comparators) != 0 {
		dst = fieldSep(dst, &first)
		dst = append(dst, `"comparators":[`...)
		for i, p := range r.Comparators {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '[')
			dst = strconv.AppendInt(dst, int64(p[0]), 10)
			dst = append(dst, ',')
			dst = strconv.AppendInt(dst, int64(p[1]), 10)
			dst = append(dst, ']')
		}
		dst = append(dst, ']')
	}
	if r.Property != "" {
		dst = appendStringField(dst, &first, "property", r.Property)
	}
	if r.K != 0 {
		dst = appendIntField(dst, &first, "k", r.K)
	}
	if r.Exhaustive {
		dst = appendBoolField(dst, &first, "exhaustive", r.Exhaustive)
	}
	if r.Mode != "" {
		dst = appendStringField(dst, &first, "mode", r.Mode)
	}
	if r.Exact {
		dst = appendBoolField(dst, &first, "exact", r.Exact)
	}
	if first {
		return append(dst, '{', '}')
	}
	return append(dst, '}')
}

// AppendVerdict appends the JSON encoding of v, byte-identical to
// json.Marshal(v) (and therefore to MarshalVerdict).
//
//sortnets:hotpath
func AppendVerdict(dst []byte, v *Verdict) []byte {
	first := true
	if v.ID != "" {
		dst = appendStringField(dst, &first, "id", v.ID)
	}
	dst = appendStringField(dst, &first, "op", v.Op)
	dst = appendStringField(dst, &first, "digest", v.Digest)
	dst = appendStringField(dst, &first, "property", v.Property)
	if v.Check != nil {
		dst = fieldSep(dst, &first)
		dst = append(dst, `"check":`...)
		dst = appendCheckVerdict(dst, v.Check)
	}
	if v.Faults != nil {
		dst = fieldSep(dst, &first)
		dst = append(dst, `"faults":`...)
		dst = appendFaultsVerdict(dst, v.Faults)
	}
	if v.Minset != nil {
		dst = fieldSep(dst, &first)
		dst = append(dst, `"minset":`...)
		dst = appendMinsetVerdict(dst, v.Minset)
	}
	return append(dst, '}')
}

//sortnets:hotpath
func appendCheckVerdict(dst []byte, c *CheckVerdict) []byte {
	first := true
	if c.Exhaustive {
		dst = appendBoolField(dst, &first, "exhaustive", c.Exhaustive)
	}
	dst = appendBoolField(dst, &first, "holds", c.Holds)
	dst = appendIntField(dst, &first, "testsRun", c.TestsRun)
	if c.Counterexample != "" {
		dst = appendStringField(dst, &first, "counterexample", c.Counterexample)
	}
	if c.Output != "" {
		dst = appendStringField(dst, &first, "output", c.Output)
	}
	return append(dst, '}')
}

//sortnets:hotpath
func appendFaultsVerdict(dst []byte, f *FaultsVerdict) []byte {
	first := true
	dst = appendStringField(dst, &first, "mode", f.Mode)
	dst = appendIntField(dst, &first, "faults", f.Faults)
	dst = appendIntField(dst, &first, "detectable", f.Detectable)
	dst = appendIntField(dst, &first, "detected", f.Detected)
	dst = fieldSep(dst, &first)
	dst = append(dst, `"coverage":`...)
	dst = appendJSONFloat(dst, f.Coverage)
	return append(dst, '}')
}

//sortnets:hotpath
func appendMinsetVerdict(dst []byte, m *MinsetVerdict) []byte {
	first := true
	dst = appendStringField(dst, &first, "mode", m.Mode)
	dst = appendIntField(dst, &first, "faults", m.Faults)
	dst = appendIntField(dst, &first, "detectable", m.Detectable)
	dst = appendIntField(dst, &first, "detected", m.Detected)
	dst = appendIntField(dst, &first, "fullTests", m.FullTests)
	dst = appendIntField(dst, &first, "size", m.Size)
	dst = appendBoolField(dst, &first, "exact", m.Exact)
	dst = fieldSep(dst, &first)
	dst = append(dst, `"tests":`...)
	if m.Tests == nil {
		dst = append(dst, `null`...)
	} else {
		dst = append(dst, '[')
		for i, t := range m.Tests {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, t)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// AppendBatchVerdict appends the JSON encoding of one NDJSON response
// line, byte-identical to json.Marshal(bv).
//
//sortnets:hotpath
func AppendBatchVerdict(dst []byte, bv *BatchVerdict) []byte {
	first := true
	if bv.ID != "" {
		dst = appendStringField(dst, &first, "id", bv.ID)
	}
	if bv.Verdict != nil {
		dst = fieldSep(dst, &first)
		dst = append(dst, `"verdict":`...)
		dst = AppendVerdict(dst, bv.Verdict)
	}
	if bv.Error != nil {
		dst = fieldSep(dst, &first)
		dst = append(dst, `"error":{"status":`...)
		dst = strconv.AppendInt(dst, int64(bv.Error.Status), 10)
		dst = append(dst, `,"error":`...)
		dst = appendJSONString(dst, bv.Error.Msg)
		if bv.Error.RetryAfter != 0 {
			dst = append(dst, `,"retry_after":`...)
			dst = strconv.AppendInt(dst, int64(bv.Error.RetryAfter), 10)
		}
		dst = append(dst, '}')
	}
	if bv.Source != "" {
		dst = appendStringField(dst, &first, "source", bv.Source)
	}
	if first {
		return append(dst, '{', '}')
	}
	return append(dst, '}')
}

// --- Decoding ------------------------------------------------------------

// jsonCursor walks one JSON document in place. It implements exactly
// the value shapes the wire types need (objects, strings, integers,
// bools, arrays, floats, null) plus a generic skip, with encoding/
// json's semantics: case-insensitive field names, last duplicate
// wins, extra array elements for fixed-size arrays discarded, null
// leaving scalar fields untouched and nilling slices/pointers.
type jsonCursor struct {
	data []byte
	i    int
}

var errJSONSyntax = errors.New("invalid JSON")

func (c *jsonCursor) syntax(what string) error {
	return fmt.Errorf("%w: %s at offset %d", errJSONSyntax, what, c.i)
}

func (c *jsonCursor) skipWS() {
	for c.i < len(c.data) {
		switch c.data[c.i] {
		case ' ', '\t', '\n', '\r':
			c.i++
		default:
			return
		}
	}
}

// peek returns the next non-whitespace byte without consuming it, or
// 0 at end of input.
func (c *jsonCursor) peek() byte {
	c.skipWS()
	if c.i >= len(c.data) {
		return 0
	}
	return c.data[c.i]
}

func (c *jsonCursor) expect(ch byte, what string) error {
	if c.peek() != ch {
		return c.syntax(what)
	}
	c.i++
	return nil
}

// literal consumes the given keyword (true/false/null).
func (c *jsonCursor) literal(kw string) error {
	if len(c.data)-c.i < len(kw) || string(c.data[c.i:c.i+len(kw)]) != kw {
		return c.syntax("literal " + kw)
	}
	c.i += len(kw)
	return nil
}

// maybeNull consumes a null value if present.
func (c *jsonCursor) maybeNull() (bool, error) {
	if c.peek() != 'n' {
		return false, nil
	}
	return true, c.literal("null")
}

// parseString decodes a JSON string value. The unescaped fast path
// returns a direct copy; escapes go through a rune-by-rune rebuild.
func (c *jsonCursor) parseString() (string, error) {
	if err := c.expect('"', "expected string"); err != nil {
		return "", err
	}
	start := c.i
	for c.i < len(c.data) {
		b := c.data[c.i]
		if b == '"' {
			s := string(c.data[start:c.i])
			c.i++
			return s, nil
		}
		if b == '\\' || b < 0x20 {
			break
		}
		if b < utf8.RuneSelf {
			c.i++
			continue
		}
		// Multi-byte sequence: stay on the fast path only while the
		// UTF-8 is valid (invalid sequences get the U+FFFD treatment
		// below, like encoding/json).
		r, size := utf8.DecodeRune(c.data[c.i:])
		if r == utf8.RuneError && size == 1 {
			break
		}
		c.i += size
	}
	// Slow path: rebuild with escapes, rejecting control bytes and
	// replacing invalid UTF-8 with U+FFFD.
	var sb strings.Builder
	sb.Write(c.data[start:c.i])
	for c.i < len(c.data) {
		b := c.data[c.i]
		switch {
		case b == '"':
			c.i++
			return sb.String(), nil
		case b < 0x20:
			return "", c.syntax("control character in string")
		case b >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(c.data[c.i:])
			if r == utf8.RuneError && size == 1 {
				sb.WriteRune(utf8.RuneError)
				c.i++
				continue
			}
			sb.Write(c.data[c.i : c.i+size])
			c.i += size
		case b != '\\':
			sb.WriteByte(b)
			c.i++
		default:
			c.i++
			if c.i >= len(c.data) {
				return "", c.syntax("unterminated escape")
			}
			esc := c.data[c.i]
			c.i++
			switch esc {
			case '"', '\\', '/':
				sb.WriteByte(esc)
			case 'b':
				sb.WriteByte('\b')
			case 'f':
				sb.WriteByte('\f')
			case 'n':
				sb.WriteByte('\n')
			case 'r':
				sb.WriteByte('\r')
			case 't':
				sb.WriteByte('\t')
			case 'u':
				r, err := c.parseHex4()
				if err != nil {
					return "", err
				}
				if utf16.IsSurrogate(r) {
					if c.i+1 < len(c.data) && c.data[c.i] == '\\' && c.data[c.i+1] == 'u' {
						c.i += 2
						r2, err := c.parseHex4()
						if err != nil {
							return "", err
						}
						if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
							sb.WriteRune(dec)
							continue
						}
						// An invalid pair: both halves decode to U+FFFD,
						// exactly like encoding/json.
						sb.WriteRune(utf8.RuneError)
						sb.WriteRune(utf8.RuneError)
						continue
					}
					sb.WriteRune(utf8.RuneError)
					continue
				}
				sb.WriteRune(r)
			default:
				return "", c.syntax("invalid escape")
			}
		}
	}
	return "", c.syntax("unterminated string")
}

func (c *jsonCursor) parseHex4() (rune, error) {
	if c.i+4 > len(c.data) {
		return 0, c.syntax("short \\u escape")
	}
	var r rune
	for k := 0; k < 4; k++ {
		b := c.data[c.i+k]
		switch {
		case b >= '0' && b <= '9':
			r = r<<4 | rune(b-'0')
		case b >= 'a' && b <= 'f':
			r = r<<4 | rune(b-'a'+10)
		case b >= 'A' && b <= 'F':
			r = r<<4 | rune(b-'A'+10)
		default:
			return 0, c.syntax("invalid \\u escape")
		}
	}
	c.i += 4
	return r, nil
}

// numberEnd scans a syntactically valid JSON number starting at the
// cursor and returns the index just past it (also reporting whether
// it stayed integral).
func (c *jsonCursor) numberEnd() (end int, integral bool, err error) {
	i := c.i
	integral = true
	if i < len(c.data) && c.data[i] == '-' {
		i++
	}
	switch {
	case i < len(c.data) && c.data[i] == '0':
		i++
	case i < len(c.data) && c.data[i] >= '1' && c.data[i] <= '9':
		for i < len(c.data) && c.data[i] >= '0' && c.data[i] <= '9' {
			i++
		}
	default:
		return 0, false, c.syntax("invalid number")
	}
	if i < len(c.data) && c.data[i] == '.' {
		integral = false
		i++
		if i >= len(c.data) || c.data[i] < '0' || c.data[i] > '9' {
			return 0, false, c.syntax("invalid number fraction")
		}
		for i < len(c.data) && c.data[i] >= '0' && c.data[i] <= '9' {
			i++
		}
	}
	if i < len(c.data) && (c.data[i] == 'e' || c.data[i] == 'E') {
		integral = false
		i++
		if i < len(c.data) && (c.data[i] == '+' || c.data[i] == '-') {
			i++
		}
		if i >= len(c.data) || c.data[i] < '0' || c.data[i] > '9' {
			return 0, false, c.syntax("invalid number exponent")
		}
		for i < len(c.data) && c.data[i] >= '0' && c.data[i] <= '9' {
			i++
		}
	}
	return i, integral, nil
}

// parseInt decodes an integer value into an int, rejecting fractions
// and exponents exactly like encoding/json unmarshalling into an int
// field (valid JSON numbers with a '.' or 'e' are a type error
// there; both are plain errors here).
func (c *jsonCursor) parseInt() (int, error) {
	c.skipWS()
	end, integral, err := c.numberEnd()
	if err != nil {
		return 0, err
	}
	if !integral {
		return 0, c.syntax("number is not an integer")
	}
	neg := false
	i := c.i
	if c.data[i] == '-' {
		neg = true
		i++
	}
	var n int64
	for ; i < end; i++ {
		d := int64(c.data[i] - '0')
		if n > (math.MaxInt64-d)/10 {
			return 0, c.syntax("integer overflow")
		}
		n = n*10 + d
	}
	c.i = end
	if neg {
		n = -n
	}
	if n < math.MinInt || n > math.MaxInt {
		return 0, c.syntax("integer overflow")
	}
	return int(n), nil
}

// parseFloat decodes any JSON number as a float64.
func (c *jsonCursor) parseFloat() (float64, error) {
	c.skipWS()
	end, _, err := c.numberEnd()
	if err != nil {
		return 0, err
	}
	f, perr := strconv.ParseFloat(string(c.data[c.i:end]), 64)
	if perr != nil {
		return 0, c.syntax("invalid number")
	}
	c.i = end
	return f, nil
}

func (c *jsonCursor) parseBool() (bool, error) {
	switch c.peek() {
	case 't':
		return true, c.literal("true")
	case 'f':
		return false, c.literal("false")
	}
	return false, c.syntax("expected boolean")
}

// skipValue consumes any JSON value.
func (c *jsonCursor) skipValue() error {
	switch c.peek() {
	case '"':
		_, err := c.parseString()
		return err
	case '{':
		c.i++
		if c.peek() == '}' {
			c.i++
			return nil
		}
		for {
			if _, err := c.parseString(); err != nil {
				return err
			}
			if err := c.expect(':', "expected ':'"); err != nil {
				return err
			}
			if err := c.skipValue(); err != nil {
				return err
			}
			switch c.peek() {
			case ',':
				c.i++
			case '}':
				c.i++
				return nil
			default:
				return c.syntax("expected ',' or '}'")
			}
		}
	case '[':
		c.i++
		if c.peek() == ']' {
			c.i++
			return nil
		}
		for {
			if err := c.skipValue(); err != nil {
				return err
			}
			switch c.peek() {
			case ',':
				c.i++
			case ']':
				c.i++
				return nil
			default:
				return c.syntax("expected ',' or ']'")
			}
		}
	case 't':
		return c.literal("true")
	case 'f':
		return c.literal("false")
	case 'n':
		return c.literal("null")
	case '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		end, _, err := c.numberEnd()
		if err != nil {
			return err
		}
		c.i = end
		return nil
	}
	return c.syntax("expected value")
}

// parseObject walks one JSON object, calling field for every key
// (escape-decoded). field handles unknown keys itself (error for the
// strict request form, skipValue for the lenient verdict forms).
// A null instead of an object reports null=true and touches nothing.
func (c *jsonCursor) parseObject(field func(key string) error) (null bool, err error) {
	if isNull, err := c.maybeNull(); err != nil || isNull {
		return isNull, err
	}
	if err := c.expect('{', "expected object"); err != nil {
		return false, err
	}
	if c.peek() == '}' {
		c.i++
		return false, nil
	}
	for {
		key, err := c.parseString()
		if err != nil {
			return false, err
		}
		if err := c.expect(':', "expected ':'"); err != nil {
			return false, err
		}
		if err := field(key); err != nil {
			return false, err
		}
		switch c.peek() {
		case ',':
			c.i++
		case '}':
			c.i++
			return false, nil
		default:
			return false, c.syntax("expected ',' or '}'")
		}
	}
}

// stringInto / intInto / boolInto decode one field value with
// encoding/json's null semantics (null leaves the target untouched).
func (c *jsonCursor) stringInto(dst *string) error {
	if null, err := c.maybeNull(); err != nil || null {
		return err
	}
	s, err := c.parseString()
	if err != nil {
		return err
	}
	*dst = s
	return nil
}

func (c *jsonCursor) intInto(dst *int) error {
	if null, err := c.maybeNull(); err != nil || null {
		return err
	}
	n, err := c.parseInt()
	if err != nil {
		return err
	}
	*dst = n
	return nil
}

func (c *jsonCursor) boolInto(dst *bool) error {
	if null, err := c.maybeNull(); err != nil || null {
		return err
	}
	b, err := c.parseBool()
	if err != nil {
		return err
	}
	*dst = b
	return nil
}

func (c *jsonCursor) floatInto(dst *float64) error {
	if null, err := c.maybeNull(); err != nil || null {
		return err
	}
	f, err := c.parseFloat()
	if err != nil {
		return err
	}
	*dst = f
	return nil
}

// pairsInto decodes a [][2]int field (null → nil). Fixed-size array
// semantics match encoding/json: extra elements are parsed and
// discarded, missing ones stay zero.
func (c *jsonCursor) pairsInto(dst *[][2]int) error {
	if null, err := c.maybeNull(); err != nil {
		return err
	} else if null {
		*dst = nil
		return nil
	}
	if err := c.expect('[', "expected array"); err != nil {
		return err
	}
	out := (*dst)[:0]
	if out == nil {
		out = [][2]int{}
	}
	if c.peek() == ']' {
		c.i++
		*dst = out
		return nil
	}
	for {
		var pair [2]int
		if null, err := c.maybeNull(); err != nil {
			return err
		} else if !null {
			if err := c.expect('[', "expected pair"); err != nil {
				return err
			}
			if c.peek() != ']' {
				for idx := 0; ; idx++ {
					if idx < 2 {
						if err := c.intInto(&pair[idx]); err != nil {
							return err
						}
					} else if err := c.skipValue(); err != nil {
						return err
					}
					if c.peek() != ',' {
						break
					}
					c.i++
				}
			}
			if err := c.expect(']', "expected ']'"); err != nil {
				return err
			}
		}
		out = append(out, pair)
		switch c.peek() {
		case ',':
			c.i++
		case ']':
			c.i++
			*dst = out
			return nil
		default:
			return c.syntax("expected ',' or ']'")
		}
	}
}

// stringsInto decodes a []string field (null → nil).
func (c *jsonCursor) stringsInto(dst *[]string) error {
	if null, err := c.maybeNull(); err != nil {
		return err
	} else if null {
		*dst = nil
		return nil
	}
	if err := c.expect('[', "expected array"); err != nil {
		return err
	}
	out := []string{}
	if c.peek() == ']' {
		c.i++
		*dst = out
		return nil
	}
	for {
		var s string
		if err := c.stringInto(&s); err != nil {
			return err
		}
		out = append(out, s)
		switch c.peek() {
		case ',':
			c.i++
		case ']':
			c.i++
			*dst = out
			return nil
		default:
			return c.syntax("expected ',' or ']'")
		}
	}
}

// UnmarshalRequestLine decodes one request — an NDJSON line or a whole
// single-shot JSON body — into r with the strict semantics of
// encoding/json's Decoder under DisallowUnknownFields: unknown fields
// are an error, and so is any non-whitespace trailing data after the
// JSON value. r is fully overwritten (reset first), so a pooled
// Request can be reused.
func UnmarshalRequestLine(data []byte, r *Request) error {
	*r = Request{}
	c := jsonCursor{data: data}
	_, err := c.parseObject(func(key string) error {
		switch {
		case strings.EqualFold(key, "id"):
			return c.stringInto(&r.ID)
		case strings.EqualFold(key, "op"):
			return c.stringInto(&r.Op)
		case strings.EqualFold(key, "network"):
			return c.stringInto(&r.Network)
		case strings.EqualFold(key, "lines"):
			return c.intInto(&r.Lines)
		case strings.EqualFold(key, "comparators"):
			return c.pairsInto(&r.Comparators)
		case strings.EqualFold(key, "property"):
			return c.stringInto(&r.Property)
		case strings.EqualFold(key, "k"):
			return c.intInto(&r.K)
		case strings.EqualFold(key, "exhaustive"):
			return c.boolInto(&r.Exhaustive)
		case strings.EqualFold(key, "mode"):
			return c.stringInto(&r.Mode)
		case strings.EqualFold(key, "exact"):
			return c.boolInto(&r.Exact)
		}
		return fmt.Errorf("json: unknown field %q", key)
	})
	if err != nil {
		return err
	}
	if c.peek() != 0 {
		return errors.New("trailing data after JSON value")
	}
	return nil
}

// UnmarshalBatchVerdictLine decodes one NDJSON response line into bv
// with json.Unmarshal's lenient semantics (unknown fields skipped).
// bv is fully overwritten; nested Verdict/RequestError values are
// freshly allocated, so the result does not alias pooled memory.
func UnmarshalBatchVerdictLine(data []byte, bv *BatchVerdict) error {
	*bv = BatchVerdict{}
	c := jsonCursor{data: data}
	_, err := c.parseObject(func(key string) error {
		switch {
		case strings.EqualFold(key, "id"):
			return c.stringInto(&bv.ID)
		case strings.EqualFold(key, "verdict"):
			v := bv.Verdict
			if v == nil {
				v = &Verdict{}
			}
			null, err := c.verdictInto(v)
			if err != nil {
				return err
			}
			if null {
				bv.Verdict = nil
			} else {
				bv.Verdict = v
			}
			return nil
		case strings.EqualFold(key, "error"):
			e := bv.Error
			if e == nil {
				e = &RequestError{}
			}
			null, err := c.parseObject(func(key string) error {
				switch {
				case strings.EqualFold(key, "status"):
					return c.intInto(&e.Status)
				case strings.EqualFold(key, "error"):
					return c.stringInto(&e.Msg)
				case strings.EqualFold(key, "retry_after"):
					return c.intInto(&e.RetryAfter)
				}
				return c.skipValue()
			})
			if err != nil {
				return err
			}
			if null {
				bv.Error = nil
			} else {
				bv.Error = e
			}
			return nil
		case strings.EqualFold(key, "source"):
			return c.stringInto(&bv.Source)
		}
		return c.skipValue()
	})
	if err != nil {
		return err
	}
	if c.peek() != 0 {
		return errors.New("trailing data after JSON value")
	}
	return nil
}

func (c *jsonCursor) verdictInto(v *Verdict) (null bool, err error) {
	return c.parseObject(func(key string) error {
		switch {
		case strings.EqualFold(key, "id"):
			return c.stringInto(&v.ID)
		case strings.EqualFold(key, "op"):
			return c.stringInto(&v.Op)
		case strings.EqualFold(key, "digest"):
			return c.stringInto(&v.Digest)
		case strings.EqualFold(key, "property"):
			return c.stringInto(&v.Property)
		case strings.EqualFold(key, "check"):
			cv := v.Check
			if cv == nil {
				cv = &CheckVerdict{}
			}
			null, err := c.parseObject(func(key string) error {
				switch {
				case strings.EqualFold(key, "exhaustive"):
					return c.boolInto(&cv.Exhaustive)
				case strings.EqualFold(key, "holds"):
					return c.boolInto(&cv.Holds)
				case strings.EqualFold(key, "testsRun"):
					return c.intInto(&cv.TestsRun)
				case strings.EqualFold(key, "counterexample"):
					return c.stringInto(&cv.Counterexample)
				case strings.EqualFold(key, "output"):
					return c.stringInto(&cv.Output)
				}
				return c.skipValue()
			})
			if err != nil {
				return err
			}
			if null {
				v.Check = nil
			} else {
				v.Check = cv
			}
			return nil
		case strings.EqualFold(key, "faults"):
			fv := v.Faults
			if fv == nil {
				fv = &FaultsVerdict{}
			}
			null, err := c.parseObject(func(key string) error {
				switch {
				case strings.EqualFold(key, "mode"):
					return c.stringInto(&fv.Mode)
				case strings.EqualFold(key, "faults"):
					return c.intInto(&fv.Faults)
				case strings.EqualFold(key, "detectable"):
					return c.intInto(&fv.Detectable)
				case strings.EqualFold(key, "detected"):
					return c.intInto(&fv.Detected)
				case strings.EqualFold(key, "coverage"):
					return c.floatInto(&fv.Coverage)
				}
				return c.skipValue()
			})
			if err != nil {
				return err
			}
			if null {
				v.Faults = nil
			} else {
				v.Faults = fv
			}
			return nil
		case strings.EqualFold(key, "minset"):
			mv := v.Minset
			if mv == nil {
				mv = &MinsetVerdict{}
			}
			null, err := c.parseObject(func(key string) error {
				switch {
				case strings.EqualFold(key, "mode"):
					return c.stringInto(&mv.Mode)
				case strings.EqualFold(key, "faults"):
					return c.intInto(&mv.Faults)
				case strings.EqualFold(key, "detectable"):
					return c.intInto(&mv.Detectable)
				case strings.EqualFold(key, "detected"):
					return c.intInto(&mv.Detected)
				case strings.EqualFold(key, "fullTests"):
					return c.intInto(&mv.FullTests)
				case strings.EqualFold(key, "size"):
					return c.intInto(&mv.Size)
				case strings.EqualFold(key, "exact"):
					return c.boolInto(&mv.Exact)
				case strings.EqualFold(key, "tests"):
					return c.stringsInto(&mv.Tests)
				}
				return c.skipValue()
			})
			if err != nil {
				return err
			}
			if null {
				v.Minset = nil
			} else {
				v.Minset = mv
			}
			return nil
		}
		return c.skipValue()
	})
}
