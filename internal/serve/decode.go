package serve

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// The /v1/topk and /v1/classify bodies are read by one hand-written
// decoder: a 200-term query is ~5 KB of numbers, which reflection-driven
// encoding/json decoded at under half this scanner's speed and with five
// times the allocations (BenchmarkDecodeQueryRequest). The decoder
// accepts exactly what json.Decoder with
// DisallowUnknownFields accepts for a queryRequest, followed by nothing
// but whitespace, and produces the same values bit for bit
// (FuzzDecodeQueryRequest holds it to that):
//
//   - the JSON grammar — RFC 8259 numbers, strings with every escape,
//     literals — and nothing after the value but whitespace;
//   - keys matched as encoding/json matches them: exactly, else by
//     Unicode simple case folding, which is bytes.EqualFold (so "K" and
//     "QUERIES" name fields, and so do the Kelvin sign for "k" and the
//     long s in "querieſ"; "ſueries" does not);
//   - integers through strconv.ParseInt at the field's width, floats
//     through strconv.ParseFloat(…, 64): a literal that is not an
//     integer, or out of range, is refused — 1e400 as well as 1.5 for an
//     index;
//   - null leaves a number, string or struct as it was and empties a
//     slice; a repeated key decodes into what the first one left, element
//     by element, the way encoding/json reuses a slice's backing array.
//
// Anything else — an unknown field, a value of the wrong JSON type — is
// refused; the caller answers every refusal with the same 400
// bad_request encoding/json's errors got.

// bodyParser is a cursor over one request body.
type bodyParser struct {
	b   []byte
	pos int
}

// parseQueryRequest decodes body into req.
func parseQueryRequest(body []byte, req *queryRequest) error {
	p := bodyParser{b: body}
	p.space()
	if !p.null() {
		if err := p.request(req); err != nil {
			return err
		}
	}
	p.space()
	if p.pos != len(p.b) {
		return p.fail("trailing data after JSON body")
	}
	return nil
}

// fail is a refusal at the cursor.
func (p *bodyParser) fail(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

// space skips JSON whitespace.
func (p *bodyParser) space() {
	for p.pos < len(p.b) {
		switch p.b[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// next consumes c if it is the next byte.
func (p *bodyParser) next(c byte) bool {
	if p.pos < len(p.b) && p.b[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

// null consumes the literal null if it comes next. A value ends at a
// delimiter, which the caller checks, so "nullx" fails there.
func (p *bodyParser) null() bool {
	if len(p.b)-p.pos >= 4 && string(p.b[p.pos:p.pos+4]) == "null" {
		p.pos += 4
		return true
	}
	return false
}

// object walks one JSON object, handing each member's key to member
// with the cursor on the member's value; the opening brace is consumed.
func (p *bodyParser) object(member func(key []byte) error) error {
	p.space()
	if p.next('}') {
		return nil
	}
	for {
		key, err := p.str()
		if err != nil {
			return err
		}
		p.space()
		if !p.next(':') {
			return p.fail("want ':' after object key")
		}
		p.space()
		if err := member(key); err != nil {
			return err
		}
		p.space()
		if p.next('}') {
			return nil
		}
		if !p.next(',') {
			return p.fail("want ',' or '}' in object")
		}
		p.space()
	}
}

// array walks one JSON array after its opening bracket, calling elem with
// each element's index and the cursor on it; it returns the length.
func (p *bodyParser) array(elem func(i int) error) (int, error) {
	p.space()
	if p.next(']') {
		return 0, nil
	}
	for i := 0; ; i++ {
		if err := elem(i); err != nil {
			return 0, err
		}
		p.space()
		if p.next(']') {
			return i + 1, nil
		}
		if !p.next(',') {
			return 0, p.fail("want ',' or ']' in array")
		}
		p.space()
	}
}

// field reports whether key names the field called name, the way
// encoding/json matches: exactly, else under Unicode simple folding —
// EqualFold is both.
func field(key []byte, name string) bool {
	return strings.EqualFold(string(key), name)
}

// request decodes the body's object into req.
func (p *bodyParser) request(req *queryRequest) error {
	if !p.next('{') {
		return p.fail("request body is not a JSON object")
	}
	return p.object(func(key []byte) error {
		switch {
		case field(key, "queries"):
			return p.queries(&req.Queries)
		case field(key, "k"):
			return p.integer(&req.K)
		case field(key, "metric"):
			return p.text(&req.Metric)
		case field(key, "dim"):
			return p.integer(&req.Dim)
		}
		return p.fail("unknown field %q", key)
	})
}

// queries decodes the queries array (or null, which empties it).
func (p *bodyParser) queries(qs *[]wireQuery) error {
	if p.null() {
		*qs = nil
		return nil
	}
	if !p.next('[') {
		return p.fail("queries is not an array")
	}
	s := *qs
	n, err := p.array(func(i int) error {
		s = slot(s, i)
		return p.query(&s[i])
	})
	if err != nil {
		return err
	}
	*qs = settle(s, n)
	return nil
}

// query decodes one query object (or null, which leaves it).
func (p *bodyParser) query(q *wireQuery) error {
	if p.null() {
		return nil
	}
	if !p.next('{') {
		return p.fail("query is not a JSON object")
	}
	return p.object(func(key []byte) error {
		switch {
		case field(key, "idx"):
			return numbers(p, &q.Idx, func(lit []byte) (int32, error) {
				v, err := strconv.ParseInt(string(lit), 10, 32)
				return int32(v), err
			})
		case field(key, "val"):
			return numbers(p, &q.Val, func(lit []byte) (float64, error) {
				return strconv.ParseFloat(string(lit), 64)
			})
		}
		return p.fail("unknown field %q", key)
	})
}

// numbers decodes a JSON array of numbers (or null) into *dst through
// parse, reusing *dst's elements as encoding/json does.
func numbers[T int32 | float64](p *bodyParser, dst *[]T, parse func(lit []byte) (T, error)) error {
	if p.null() {
		*dst = nil
		return nil
	}
	if !p.next('[') {
		return p.fail("want an array of numbers")
	}
	s := reserve(*dst, min(p.arrayLen(), maxReserve))
	n, err := p.array(func(i int) error {
		s = slot(s, i)
		if p.null() {
			return nil
		}
		lit, err := p.number()
		if err != nil {
			return err
		}
		v, err := parse(lit)
		if err != nil {
			return p.fail("number %s does not fit its field", lit)
		}
		s[i] = v
		return nil
	})
	if err != nil {
		return err
	}
	*dst = settle(s, n)
	return nil
}

// maxReserve caps the capacity numbers sizes an array for ahead of its
// elements (32 KB of float64 — a query in the 3815-function kernel
// space fits), so a body of a few megabytes of commas costs no more than
// its own bytes.
const maxReserve = 1 << 12

// arrayLen estimates the element count of the array the cursor is in by
// counting commas up to the first ']' — exact for an array of numbers,
// and only a capacity hint otherwise.
func (p *bodyParser) arrayLen() int {
	span := p.b[p.pos:]
	if end := bytes.IndexByte(span, ']'); end >= 0 {
		span = span[:end]
	}
	return bytes.Count(span, []byte{','}) + 1
}

// slot makes s[i] addressable the way encoding/json's array decoder
// does: an element below the capacity is reused as it stands — left over
// from an earlier value under a repeated key — and one past it starts
// zero.
func slot[T any](s []T, i int) []T {
	if i >= cap(s) {
		var zero T
		s = append(s[:cap(s)], zero)
	}
	if i >= len(s) {
		s = s[:i+1]
	}
	return s
}

// reserve grows s's capacity to at least n up front, keeping every
// element below the old capacity where slot would have found it.
func reserve[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s
	}
	t := make([]T, len(s), n)
	copy(t[:cap(s)], s[:cap(s)])
	return t
}

// settle trims s to the n elements an array held. An empty array drops
// the backing array, as encoding/json's fresh empty slice does, so a
// later repeated key finds nothing left over.
func settle[T any](s []T, n int) []T {
	if n == 0 {
		return nil
	}
	return s[:n]
}

// integer decodes an int field (or null, which leaves it).
func (p *bodyParser) integer(dst *int) error {
	if p.null() {
		return nil
	}
	lit, err := p.number()
	if err != nil {
		return err
	}
	v, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	if err != nil {
		return p.fail("number %s does not fit an int", lit)
	}
	*dst = int(v)
	return nil
}

// text decodes a string field (or null, which leaves it).
func (p *bodyParser) text(dst *string) error {
	if p.null() {
		return nil
	}
	s, err := p.str()
	if err != nil {
		return err
	}
	*dst = string(s)
	return nil
}

// number consumes one JSON number literal,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns it.
func (p *bodyParser) number() ([]byte, error) {
	start := p.pos
	p.next('-')
	switch {
	case p.next('0'):
	case p.pos < len(p.b) && '1' <= p.b[p.pos] && p.b[p.pos] <= '9':
		p.digits()
	default:
		return nil, p.fail("want a number")
	}
	if p.next('.') && !p.digits() {
		return nil, p.fail("want a digit after '.'")
	}
	if p.next('e') || p.next('E') {
		if !p.next('+') {
			p.next('-')
		}
		if !p.digits() {
			return nil, p.fail("want a digit in the exponent")
		}
	}
	return p.b[start:p.pos], nil
}

// digits consumes a run of decimal digits and reports whether there was
// one.
func (p *bodyParser) digits() bool {
	start := p.pos
	for p.pos < len(p.b) && '0' <= p.b[p.pos] && p.b[p.pos] <= '9' {
		p.pos++
	}
	return p.pos > start
}

// str consumes one JSON string and returns its contents, unescaped the
// way encoding/json unescapes: a lone or mismatched surrogate, and any
// byte that is not UTF-8, becomes U+FFFD. Without escapes or such bytes
// the result aliases the body.
func (p *bodyParser) str() ([]byte, error) {
	if !p.next('"') {
		return nil, p.fail("want a string")
	}
	start := p.pos
	for p.pos < len(p.b) {
		switch c := p.b[p.pos]; {
		case c == '"':
			p.pos++
			return p.b[start : p.pos-1], nil
		case c == '\\' || c >= utf8.RuneSelf:
			return p.strSlow(start)
		case c < ' ':
			return nil, p.fail("control character in string")
		default:
			p.pos++
		}
	}
	return nil, p.fail("unterminated string")
}

// strSlow finishes a string that holds an escape or a non-ASCII byte,
// copying from start.
func (p *bodyParser) strSlow(start int) ([]byte, error) {
	out := append([]byte(nil), p.b[start:p.pos]...)
	for p.pos < len(p.b) {
		c := p.b[p.pos]
		switch {
		case c == '"':
			p.pos++
			return out, nil
		case c < ' ':
			return nil, p.fail("control character in string")
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRune(p.b[p.pos:])
			out = utf8.AppendRune(out, r) // an invalid byte decodes as U+FFFD
			p.pos += n
		case c != '\\':
			out = append(out, c)
			p.pos++
		default:
			p.pos++
			if p.pos == len(p.b) {
				return nil, p.fail("unterminated string")
			}
			e := p.b[p.pos]
			p.pos++
			switch e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r, ok := p.hex4()
				if !ok {
					return nil, p.fail("bad \\u escape")
				}
				if utf16.IsSurrogate(r) {
					// A high surrogate pairs with a \u low surrogate right
					// after it; anything else leaves it unpaired, and
					// AppendRune writes an unpaired one as U+FFFD.
					save := p.pos
					if p.next('\\') && p.next('u') {
						if r2, ok := p.hex4(); ok {
							if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
								out = utf8.AppendRune(out, dec)
								break
							}
						}
					}
					p.pos = save
				}
				out = utf8.AppendRune(out, r)
			default:
				return nil, p.fail("bad escape \\%c", e)
			}
		}
	}
	return nil, p.fail("unterminated string")
}

// hex4 consumes four hex digits.
func (p *bodyParser) hex4() (rune, bool) {
	if len(p.b)-p.pos < 4 {
		return 0, false
	}
	var r rune
	for _, c := range p.b[p.pos : p.pos+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	p.pos += 4
	return r, true
}
