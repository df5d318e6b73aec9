package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"strconv"

	"roadtrojan/internal/telemetry"
)

// The request reader. An evaluate body is a flat object of short strings,
// small integers and one ~22 KB base64 patch; a detect body is two small
// integers and an array of 3·H·W numbers. encoding/json spends most of its
// time on either stepping its scanner over the patch or the array one byte
// at a time. ObjectReader reads such an object in one pass instead: a
// string ends at the first '"' (bytes.IndexByte) and is taken as is when
// it is printable ASCII with no backslash, an integer goes to strconv, and
// so does each number of an array once it matches JSON's number grammar.
// Anything else makes it give up, and the caller decodes the same bytes
// with encoding/json, which stays the only authority on JSON. So the
// reader never has to decide an escape, a non-ASCII byte, a case-folded
// key, a null or an out-of-range number: for those the accept/reject
// verdict, the values and the error text are encoding/json's own.

// ObjectReader reads one flat JSON object in a single pass. Whitespace
// between tokens is skipped. Its methods report false when the input needs
// encoding/json; the reader is then spent.
type ObjectReader struct {
	data []byte
	pos  int
}

// NewObjectReader returns a reader at the start of data.
func NewObjectReader(data []byte) *ObjectReader { return &ObjectReader{data: data} }

// AtEnd skips trailing whitespace and reports whether nothing else is
// left, as json.Unmarshal requires after the value.
func (o *ObjectReader) AtEnd() bool {
	o.skipSpace()
	return o.pos == len(o.data)
}

func (o *ObjectReader) skipSpace() {
	for o.pos < len(o.data) {
		switch o.data[o.pos] {
		case ' ', '\t', '\n', '\r':
			o.pos++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, reporting whether c was there.
func (o *ObjectReader) consume(c byte) bool {
	o.skipSpace()
	if o.pos < len(o.data) && o.data[o.pos] == c {
		o.pos++
		return true
	}
	return false
}

// Object reads an object, calling field for each key once the key and its
// colon are consumed. field reads the value with the reader's methods and
// reports false to give up, as it must for a key it does not know. A
// repeated key needs no fallback: its later value overwrites the earlier
// one, as it does in encoding/json.
func (o *ObjectReader) Object(field func(key string) bool) bool {
	if !o.consume('{') {
		return false
	}
	if o.consume('}') {
		return true
	}
	for {
		key, ok := o.String()
		if !ok || !o.consume(':') || !field(key) {
			return false
		}
		if !o.consume(',') {
			return o.consume('}')
		}
	}
}

// String reads a string of printable ASCII with no escapes.
func (o *ObjectReader) String() (string, bool) {
	if !o.consume('"') {
		return "", false
	}
	rest := o.data[o.pos:]
	end := bytes.IndexByte(rest, '"')
	if end < 0 {
		return "", false
	}
	if !plainASCII(rest[:end]) {
		return "", false
	}
	o.pos += end + 1
	return string(rest[:end]), true
}

// plainASCII reports whether s is printable ASCII (' ' to '~') with no
// backslash. It tests eight bytes per step with the classic SWAR
// has-less/has-more/has-zero word tests, which are exact on whether any
// byte of the word matches.
func plainASCII(s []byte) bool {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	for len(s) >= 8 {
		x := binary.LittleEndian.Uint64(s)
		b := x ^ ones*'\\'
		if ((x-ones*' ')&^x|(x+ones*(0x7f-'~'))|x|(b-ones)&^b)&highs != 0 {
			return false
		}
		s = s[8:]
	}
	for _, c := range s {
		if c < ' ' || c > '~' || c == '\\' {
			return false
		}
	}
	return true
}

// Int reads an integer that fits in bitSize bits. Only the plain forms are
// taken: no fraction or exponent, no leading zero, and not -0.
func (o *ObjectReader) Int(bitSize int) (int64, bool) {
	o.skipSpace()
	start := o.pos
	if o.pos < len(o.data) && o.data[o.pos] == '-' {
		o.pos++
	}
	digits := o.pos
	o.pos = skipDigits(o.data, o.pos)
	if o.pos == digits || (o.data[digits] == '0' && o.pos-start > 1) {
		return 0, false
	}
	v, err := strconv.ParseInt(string(o.data[start:o.pos]), 10, bitSize)
	return v, err == nil
}

// Float64s reads an array of numbers. Each element must match JSON's
// number grammar before strconv.ParseFloat sees it, because ParseFloat
// also takes forms JSON does not (Inf, NaN, +1, .5, hex floats,
// underscores); encoding/json converts a number with the same
// ParseFloat(s, 64), so the values are its own, bit for bit. A number
// ParseFloat refuses (1e400) gives up, as does a null or any other
// element. The slice is sized from the commas before the first ']'.
func (o *ObjectReader) Float64s() ([]float64, bool) {
	if !o.consume('[') {
		return nil, false
	}
	end := bytes.IndexByte(o.data[o.pos:], ']')
	if end < 0 {
		return nil, false
	}
	out := make([]float64, 0, bytes.Count(o.data[o.pos:o.pos+end], []byte{','})+1)
	if o.consume(']') {
		return out, true
	}
	for {
		o.skipSpace()
		start := o.pos
		o.pos += numberLen(o.data[start:])
		if o.pos == start {
			return nil, false
		}
		v, err := strconv.ParseFloat(string(o.data[start:o.pos]), 64)
		if err != nil {
			return nil, false
		}
		out = append(out, v)
		if !o.consume(',') {
			return out, o.consume(']')
		}
	}
}

// numberLen returns the length of the JSON number at the start of s,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, or 0 when s does not
// start with one. What follows the number is the caller's to check.
func numberLen(s []byte) int {
	i := 0
	if i < len(s) && s[i] == '-' {
		i++
	}
	switch {
	case i < len(s) && s[i] == '0':
		i++
	case i < len(s) && '1' <= s[i] && s[i] <= '9':
		i = skipDigits(s, i+1)
	default:
		return 0
	}
	if i < len(s) && s[i] == '.' {
		frac := i + 1
		if i = skipDigits(s, frac); i == frac {
			return 0
		}
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		exp := i
		if i = skipDigits(s, i); i == exp {
			return 0
		}
	}
	return i
}

// skipDigits returns the index of the first non-digit in s at or after i.
func skipDigits(s []byte, i int) int {
	for i < len(s) && '0' <= s[i] && s[i] <= '9' {
		i++
	}
	return i
}

// EvalRequest reads an evaluate request object into r: only its seven
// JSON keys, spelled exactly.
func (o *ObjectReader) EvalRequest(r *EvalRequest) bool {
	return o.Object(func(key string) bool {
		var ok bool
		var v int64
		switch key {
		case "patch":
			r.Patch, ok = o.String()
		case "scene":
			r.Scene, ok = o.String()
		case "challenge":
			r.Challenge, ok = o.String()
		case "mode":
			r.Mode, ok = o.String()
		case "runs":
			v, ok = o.Int(strconv.IntSize)
			r.Runs = int(v)
		case "seed":
			r.Seed, ok = o.Int(64)
		case "target":
			v, ok = o.Int(strconv.IntSize)
			r.Target = int(v)
		}
		return ok
	})
}

// DecodeEvalRequest decodes the first JSON value of data as an EvalRequest
// and returns it with the value's length; whatever follows is ignored. The
// result, the error and the length are exactly those of a json.Decoder
// over data and its InputOffset: ObjectReader takes the plain requests,
// and the rest go to the Decoder, each counted on fallbacks (nil counts
// nothing).
func DecodeEvalRequest(data []byte, fallbacks *telemetry.Counter) (EvalRequest, int, error) {
	var r EvalRequest
	if o := NewObjectReader(data); o.EvalRequest(&r) {
		return r, o.pos, nil
	}
	if fallbacks != nil {
		fallbacks.Inc()
	}
	r = EvalRequest{}
	dec := json.NewDecoder(bytes.NewReader(data))
	err := dec.Decode(&r)
	return r, int(dec.InputOffset()), err
}

// EvalDecodeFallbacks returns reg's count of evaluate requests that
// DecodeEvalRequest, or a fabric node's job decode, handed to
// encoding/json. servd, each fabric node and the gateway export it, so a
// client whose encoder always takes the slow path shows up as a number.
func EvalDecodeFallbacks(reg *telemetry.Registry) *telemetry.Counter {
	return reg.Counter("eval_decode_fallback_total",
		"evaluate requests decoded with encoding/json because the single-pass reader gave up", nil)
}

// DetectRequest reads a detect request object into r: only its three JSON
// keys, spelled exactly.
func (o *ObjectReader) DetectRequest(r *DetectRequest) bool {
	return o.Object(func(key string) bool {
		var ok bool
		var v int64
		switch key {
		case "image":
			r.Image, ok = o.Float64s()
		case "height":
			v, ok = o.Int(strconv.IntSize)
			r.Height = int(v)
		case "width":
			v, ok = o.Int(strconv.IntSize)
			r.Width = int(v)
		}
		return ok
	})
}

// DecodeDetectRequest decodes the first JSON value of data as a
// DetectRequest; whatever follows is ignored. The result and the error are
// exactly those of a json.Decoder over data: ObjectReader takes the plain
// frames, and the rest go to the Decoder, each counted on fallbacks (nil
// counts nothing).
func DecodeDetectRequest(data []byte, fallbacks *telemetry.Counter) (DetectRequest, error) {
	var r DetectRequest
	if NewObjectReader(data).DetectRequest(&r) {
		return r, nil
	}
	if fallbacks != nil {
		fallbacks.Inc()
	}
	r = DetectRequest{}
	err := json.NewDecoder(bytes.NewReader(data)).Decode(&r)
	return r, err
}

// DetectDecodeFallbacks returns reg's count of detect requests that
// DecodeDetectRequest handed to encoding/json.
func DetectDecodeFallbacks(reg *telemetry.Registry) *telemetry.Counter {
	return reg.Counter("detect_decode_fallback_total",
		"detect requests decoded with encoding/json because the single-pass reader gave up", nil)
}
