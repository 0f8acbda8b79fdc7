package serve

// The wire codec of /estimate, /bound, /place and /complete.
//
// A request body is read into a pooled buffer and, when it is in the
// canonical subset, parsed without reflection: one object followed only by
// whitespace, exact lower-case keys without escapes and each at most once,
// JSON-grammar numbers that fit their field (ints of at most 18 digits,
// uints of at most 19, floats through strconv.ParseFloat on the validated
// literal), and arrays of those. Every other body is decoded by
// encoding/json from the same byte stream: the buffered bytes, then the
// unread rest of a body longer than the buffer cap, or the read error. So
// encoding/json stays the reference: the input picks the path, and a body
// either path accepts decodes to the same value.
//
// Replies are appended into the same buffer, byte-identical to
// json.Marshal(v) plus "\n". A value json.Marshal would reject (a
// non-finite float) or whose strings it would escape is declined and goes
// through writeJSON, which keeps the 500 for the former.

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"
)

// maxPooledBody caps how much of a request body is buffered: a longer body
// is decoded by encoding/json from the buffered prefix followed by the
// unread rest, and a buffer that grew past the cap is not pooled.
const maxPooledBody = 64 << 10

// codec is one request's pooled buffer. It holds the request body while it
// is decoded, then the reply until the ResponseWriter's Write returns.
// Decoded values never point into it, so they stay valid after the buffer
// returns to the pool.
type codec struct{ buf []byte }

var codecPool = sync.Pool{New: func() any { return &codec{buf: make([]byte, 0, 1024)} }}

func getCodec() *codec { return codecPool.Get().(*codec) }

// release returns c to the pool; call it only after the reply was written.
func (c *codec) release() {
	if cap(c.buf) <= maxPooledBody {
		c.buf = c.buf[:0]
		codecPool.Put(c)
	}
}

// read buffers body up to maxPooledBody bytes. It returns nil when the
// whole body is buffered, and otherwise the reader that continues the
// stream after the buffered bytes: the body itself when it is longer than
// the cap, or a reader returning the read error.
func (c *codec) read(body io.Reader) io.Reader {
	b := c.buf[:0]
	for len(b) < maxPooledBody {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := body.Read(b[len(b):min(cap(b), maxPooledBody)])
		b = b[:len(b)+n]
		if err != nil {
			c.buf = b
			if err == io.EOF {
				return nil
			}
			return errReader{err}
		}
	}
	c.buf = b
	return body
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// decode reads one request body and decodes it: with parse when the whole
// body is buffered and parse accepts it, else with encoding/json over the
// same byte stream, so errors and values are encoding/json's.
func decode[T any](c *codec, body io.Reader, parse func([]byte) (T, bool)) (T, error) {
	rest := c.read(body)
	if rest == nil {
		if v, ok := parse(c.buf); ok {
			return v, nil
		}
	}
	var src io.Reader = bytes.NewReader(c.buf)
	if rest != nil {
		src = io.MultiReader(src, rest)
	}
	v := new(T)
	err := json.NewDecoder(src).Decode(v)
	return *v, err
}

// writeReply writes v as appendV encodes it, into c's buffer; a value appendV
// declines goes through writeJSON.
func writeReply[T any](w http.ResponseWriter, c *codec, status int, v T, appendV func([]byte, T) ([]byte, bool)) {
	b, ok := appendV(c.buf[:0], v)
	c.buf = b
	if !ok {
		writeJSON(w, status, v)
		return
	}
	writeBody(w, status, b)
}

// scanner reads a body in the canonical subset. Any byte outside it sets
// bad and moves to the end, after which every read returns a zero value.
type scanner struct {
	b   []byte
	i   int
	bad bool
}

func (s *scanner) fail() {
	s.bad = true
	s.i = len(s.b)
}

// ws skips JSON whitespace.
func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// skip consumes c if it is the next byte.
func (s *scanner) skip(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// eat skips whitespace, then consumes c if it is the next byte.
func (s *scanner) eat(c byte) bool {
	s.ws()
	return s.skip(c)
}

func (s *scanner) want(c byte) {
	if !s.eat(c) {
		s.fail()
	}
}

// end reports whether the body was in the subset and nothing but
// whitespace follows the value.
func (s *scanner) end() bool {
	s.ws()
	return !s.bad && s.i == len(s.b)
}

// member reads the separator before the next member of the object being
// read, and the member's key, and returns the key's index in names; -1
// means the object closed or the body left the subset. seen has bit k set
// once names[k] was read: a repeated key, like an unknown one, is outside
// the subset.
func (s *scanner) member(seen *uint, names ...string) int {
	if s.eat('}') {
		return -1
	}
	if *seen != 0 {
		s.want(',')
	}
	s.want('"')
	start := s.i
	for s.i < len(s.b) && s.b[s.i] != '"' && s.b[s.i] != '\\' {
		s.i++
	}
	key := s.b[start:s.i]
	s.want('"')
	s.want(':')
	for k, name := range names {
		if string(key) == name && *seen&(1<<k) == 0 && !s.bad {
			*seen |= 1 << k
			return k
		}
	}
	s.fail()
	return -1
}

// elem reads the separator before an array's next element, the '[' before
// the first and a ',' after that, and reports whether an element follows.
func (s *scanner) elem(n int) bool {
	if n == 0 {
		s.want('[')
	}
	if s.eat(']') {
		return false
	}
	if n > 0 {
		s.want(',')
	}
	return !s.bad
}

// digits consumes a run of decimal digits and returns its length.
func (s *scanner) digits() int {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i - start
}

// number reads a JSON-grammar number and returns its literal; integral
// reports that it has neither a fraction nor an exponent.
func (s *scanner) number() (lit []byte, integral bool) {
	s.ws()
	start := s.i
	s.skip('-')
	if !s.skip('0') && s.digits() == 0 {
		s.fail()
		return nil, false
	}
	integral = true
	if s.skip('.') {
		integral = false
		if s.digits() == 0 {
			s.fail()
		}
	}
	if s.skip('e') || s.skip('E') {
		integral = false
		if !s.skip('+') {
			s.skip('-')
		}
		if s.digits() == 0 {
			s.fail()
		}
	}
	if s.bad {
		return nil, false
	}
	return s.b[start:s.i], integral
}

// int reads an integer of at most 18 digits, which cannot overflow.
func (s *scanner) int() int {
	lit, integral := s.number()
	neg := integral && lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	if !integral || len(lit) > 18 {
		s.fail()
		return 0
	}
	n := 0
	for _, c := range lit {
		n = n*10 + int(c-'0')
	}
	if neg {
		n = -n
	}
	return n
}

// uint reads an unsigned integer of at most 19 digits, which cannot
// overflow.
func (s *scanner) uint() uint64 {
	lit, integral := s.number()
	if !integral || lit[0] == '-' || len(lit) > 19 {
		s.fail()
		return 0
	}
	var n uint64
	for _, c := range lit {
		n = n*10 + uint64(c-'0')
	}
	return n
}

// float reads a number as encoding/json does: strconv.ParseFloat on the
// literal, whose range error (1e400) is a decode error there too.
func (s *scanner) float() float64 {
	lit, _ := s.number()
	if s.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		s.fail()
	}
	return f
}

// exact copies the elements gathered in a stack-backed scratch slice into
// a new one of exactly their length, empty but non-nil for "[]" as in
// encoding/json.
func exact[T any](xs []T) []T { return append(make([]T, 0, len(xs)), xs...) }

func (s *scanner) ints() []int {
	var scratch [8]int
	xs := scratch[:0]
	for s.elem(len(xs)) {
		xs = append(xs, s.int())
	}
	return exact(xs)
}

func (s *scanner) uints() []uint64 {
	var scratch [32]uint64
	xs := scratch[:0]
	for s.elem(len(xs)) {
		xs = append(xs, s.uint())
	}
	return exact(xs)
}

func (s *scanner) jobs() []JobSpec {
	var scratch [32]JobSpec
	js := scratch[:0]
	for s.elem(len(js)) {
		js = append(js, s.job())
	}
	return exact(js)
}

func (s *scanner) job() JobSpec {
	var j JobSpec
	s.want('{')
	for seen := uint(0); ; {
		switch s.member(&seen, "workload", "deadline") {
		case 0:
			j.Workload = s.int()
		case 1:
			j.Deadline = s.float()
		default:
			return j
		}
	}
}

// parseEstimate, parsePlace and parseComplete decode a request body in the
// canonical subset; ok is false for any other body.
func parseEstimate(b []byte) (EstimateRequest, bool) {
	var req EstimateRequest
	s := scanner{b: b}
	s.want('{')
	for seen := uint(0); ; {
		switch s.member(&seen, "workload", "platform", "interferers", "eps") {
		case 0:
			req.Workload = s.int()
		case 1:
			req.Platform = s.int()
		case 2:
			req.Interferers = s.ints()
		case 3:
			req.Eps = s.float()
		default:
			return req, s.end()
		}
	}
}

func parsePlace(b []byte) (PlaceRequest, bool) {
	var req PlaceRequest
	s := scanner{b: b}
	s.want('{')
	for seen := uint(0); ; {
		switch s.member(&seen, "jobs") {
		case 0:
			req.Jobs = s.jobs()
		default:
			return req, s.end()
		}
	}
}

func parseComplete(b []byte) (CompleteRequest, bool) {
	var req CompleteRequest
	s := scanner{b: b}
	s.want('{')
	for seen := uint(0); ; {
		switch s.member(&seen, "ids", "missed") {
		case 0:
			req.IDs = s.uints()
		case 1:
			req.Missed = s.uints()
		default:
			return req, s.end()
		}
	}
}

// encoder appends a reply as json.Marshal encodes it; bad records a value
// json.Marshal rejects or a string it would escape.
type encoder struct {
	b   []byte
	bad bool
}

func (e *encoder) raw(s string) { e.b = append(e.b, s...) }

func (e *encoder) int(n int) { e.b = strconv.AppendInt(e.b, int64(n), 10) }

func (e *encoder) uint(n uint64) { e.b = strconv.AppendUint(e.b, n, 10) }

func (e *encoder) bool(v bool) { e.b = strconv.AppendBool(e.b, v) }

// float formats f as encoding/json does (ES6 number formatting: 'e' below
// 1e-6 and from 1e21, with "e-07" shortened to "e-7"); NaN and ±Inf are
// json.Marshal errors.
func (e *encoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		e.bad = true
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

// str quotes s, which must need no escaping: no quote, backslash, control
// or HTML character, U+2028 or U+2029, or invalid UTF-8, all of which
// json.Marshal escapes or replaces.
func (e *encoder) str(s string) {
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c < 0x20 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
				e.bad = true
				return
			}
			i++
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && n == 1 || r == '\u2028' || r == '\u2029' {
			e.bad = true
			return
		}
		i += n
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}

func (e *encoder) uints(xs []uint64) {
	e.raw("[")
	for i, x := range xs {
		if i > 0 {
			e.raw(",")
		}
		e.uint(x)
	}
	e.raw("]")
}

func (e *encoder) assignment(a AssignmentJSON) {
	e.raw("{")
	if a.ID != 0 {
		e.raw(`"id":`)
		e.uint(a.ID)
		e.raw(",")
	}
	e.raw(`"workload":`)
	e.int(a.Workload)
	e.raw(`,"deadline":`)
	e.float(a.Deadline)
	e.raw(`,"platform":`)
	e.int(a.Platform)
	if a.Budget != 0 {
		e.raw(`,"budget":`)
		e.float(a.Budget)
	}
	e.raw(`,"placed":`)
	e.bool(a.Placed)
	if a.Rejected {
		e.raw(`,"rejected":true`)
	}
	if a.Reason != "" {
		e.raw(`,"reason":`)
		e.str(a.Reason)
	}
	e.raw("}")
}

// appendPrediction, appendPlace and appendComplete append v to b
// byte-identical to json.Marshal(v) plus "\n"; ok is false where
// json.Marshal fails or escapes a string, and the reply then goes through
// writeJSON.
func appendPrediction(b []byte, v PredictionResponse) ([]byte, bool) {
	e := encoder{b: b}
	e.raw(`{"seconds":`)
	e.float(v.Seconds)
	e.raw(`,"version":`)
	e.uint(v.Version)
	if v.Infeasible {
		e.raw(`,"infeasible":true`)
	}
	e.raw("}\n")
	return e.b, !e.bad
}

func appendPlace(b []byte, v PlaceResponse) ([]byte, bool) {
	e := encoder{b: b}
	e.raw(`{"assignments":`)
	if v.Assignments == nil {
		e.raw("null")
	} else {
		e.raw("[")
		for i, a := range v.Assignments {
			if i > 0 {
				e.raw(",")
			}
			e.assignment(a)
		}
		e.raw("]")
	}
	e.raw(`,"placed":`)
	e.int(v.Placed)
	e.raw(`,"version":`)
	e.uint(v.Version)
	e.raw("}\n")
	return e.b, !e.bad
}

func appendComplete(b []byte, v CompleteResponse) ([]byte, bool) {
	e := encoder{b: b}
	e.raw(`{"completed":`)
	e.int(v.Completed)
	if len(v.Unknown) > 0 {
		e.raw(`,"unknown":`)
		e.uints(v.Unknown)
	}
	if len(v.Stale) > 0 {
		e.raw(`,"stale":`)
		e.uints(v.Stale)
	}
	e.raw("}\n")
	return e.b, !e.bad
}
