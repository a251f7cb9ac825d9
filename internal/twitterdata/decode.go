package twitterdata

// Hand-rolled streaming NDJSON tweet decoder: the one decoder production
// uses (serve ingress, WAL replay, the JSONL Reader). DecodeInto is a
// single-pass parser that is byte-for-byte equivalent to json.Unmarshal on
// the Tweet schema (proven by the fuzz test in decode_fuzz_test.go, with
// encoding/json as the oracle) while allocating nothing on the
// steady-state path: decoded string fields are carved out of a 64KB arena
// chunk, so one Decoder amortizes one chunk allocation across ~64KB of
// interned tweet text.
//
// Arena discipline: DecodeInto marks the arena high-water position on
// entry; a failed decode rewinds automatically, and callers that reject an
// otherwise-valid tweet (backpressure, quota) call Discard to release the
// bytes of the most recent successful decode. Committed tweets own their
// spans — the chunk stays alive for as long as any decoded string does, and
// the decoder simply moves on to a fresh chunk when the current one fills.

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"
)

const (
	// decodeArenaChunk is the arena granularity: large enough that chunk
	// turnover is rare against ~200-byte tweets, small enough that a
	// single surviving string pins a bounded amount of memory.
	decodeArenaChunk = 64 << 10
	// maxDecodeDepth mirrors encoding/json's nesting limit so deeply
	// nested unknown-field payloads fail on both sides of the fuzz
	// oracle instead of overflowing the stack.
	maxDecodeDepth = 10000
)

// Static sentinel errors: the decode hot path may not call fmt, so every
// failure mode maps to one of these package-level values.
var (
	errDecodeEnd      = errors.New("twitterdata: unexpected end of tweet JSON")
	errDecodeSyntax   = errors.New("twitterdata: invalid tweet JSON syntax")
	errDecodeValue    = errors.New("twitterdata: tweet JSON must be an object")
	errDecodeType     = errors.New("twitterdata: tweet JSON field has wrong type")
	errDecodeTrailing = errors.New("twitterdata: trailing data after tweet JSON")
	errDecodeIntRange = errors.New("twitterdata: tweet JSON integer overflows int64")
	errDecodeDepth    = errors.New("twitterdata: tweet JSON exceeds max nesting depth")
)

// Package-wide decode telemetry, surfaced on /metrics as
// redhanded_ingress_* and asserted steady by the arena leak test.
var (
	decodesTotal    atomic.Int64
	decodeErrsTotal atomic.Int64
	arenaChunksPool atomic.Int64
	internedBytes   atomic.Int64
)

// DecodeStats is a snapshot of the package-wide decoder counters (surfaced
// verbatim as the "ingress" section of /v1/stats).
type DecodeStats struct {
	// Decodes counts successful DecodeInto calls.
	Decodes int64 `json:"decodes"`
	// Errors counts failed DecodeInto calls.
	Errors int64 `json:"decode_errors"`
	// ArenaChunks counts 64KB arena chunks ever allocated across all
	// decoders; steady state under Discard keeps this flat.
	ArenaChunks int64 `json:"arena_chunks"`
	// InternedBytes counts string bytes copied into arena chunks.
	InternedBytes int64 `json:"interned_bytes"`
}

// ReadDecodeStats returns the current decoder counter snapshot.
func ReadDecodeStats() DecodeStats {
	return DecodeStats{
		Decodes:       decodesTotal.Load(),
		Errors:        decodeErrsTotal.Load(),
		ArenaChunks:   arenaChunksPool.Load(),
		InternedBytes: internedBytes.Load(),
	}
}

// Decoder parses NDJSON tweet lines without allocating. It is not safe for
// concurrent use; obtain one per goroutine via GetDecoder.
type Decoder struct {
	data []byte // current input line, nil between decodes
	pos  int    // cursor into data

	chunk   []byte // current arena chunk
	off     int    // next free byte in chunk
	gen     uint64 // bumped whenever chunk is replaced
	mark    int    // arena off at DecodeInto entry
	markGen uint64 // arena gen at DecodeInto entry

	scratch []byte // reused unescape buffer, grows to steady state
}

var decoderPool = sync.Pool{New: func() any { return new(Decoder) }}

// GetDecoder returns a pooled decoder. Pair with PutDecoder.
func GetDecoder() *Decoder { return decoderPool.Get().(*Decoder) }

// PutDecoder returns a decoder to the pool. The arena chunk rides along so
// its unused tail keeps serving future decodes; strings already committed
// remain valid because the arena only ever appends.
func PutDecoder(d *Decoder) {
	d.data = nil
	decoderPool.Put(d)
}

// Discard releases the arena bytes interned by the most recent successful
// DecodeInto. Call it when a decoded tweet is rejected (backpressure, bad
// batch prefix) and none of its strings will be retained; without it a
// rejected burst would stride through arena chunks it never needed.
//
//redvet:noalloc gate=IngressDecode
func (d *Decoder) Discard() {
	if d.gen != d.markGen {
		// The decode spilled into a fresh chunk: everything in it
		// belongs to the discarded tweet.
		d.off = 0
		d.markGen = d.gen
		return
	}
	d.off = d.mark
}

// DecodeInto parses one NDJSON line into dst, resetting dst first. On
// success dst's string fields alias the decoder's arena; on error dst is
// zeroed, the arena is rewound, and the input is reported malformed. The
// accepted grammar and the resulting Tweet are equivalent to
// json.Unmarshal(line, dst) (fuzz-enforced), including ASCII-and-Unicode
// case folding of object keys, last-wins duplicate fields, merge semantics
// for duplicate user objects, UTF-8 replacement-rune repair inside string
// values, and strict trailing-data rejection.
//
//redvet:noalloc gate=IngressDecode
func (d *Decoder) DecodeInto(dst *Tweet, line []byte) error {
	d.data = line
	d.pos = 0
	d.mark = d.off
	d.markGen = d.gen
	*dst = Tweet{}
	d.skipWS()
	var err error
	switch {
	case d.pos >= len(line):
		err = errDecodeEnd
	case line[d.pos] == '{':
		err = d.decodeTweet(dst)
	case line[d.pos] == 'n':
		// Top-level null is a successful no-op for json.Unmarshal.
		err = d.literalNull()
	default:
		err = errDecodeValue
	}
	if err == nil {
		d.skipWS()
		if d.pos < len(line) {
			err = errDecodeTrailing
		}
	}
	d.data = nil
	if err != nil {
		*dst = Tweet{}
		d.Discard()
		decodeErrsTotal.Add(1)
		return err
	}
	decodesTotal.Add(1)
	return nil
}

// intern copies b into the arena and returns a string view of the copy.
//
//redvet:noalloc gate=IngressDecode
func (d *Decoder) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if len(b) > len(d.chunk)-d.off {
		n := decodeArenaChunk
		if len(b) > n {
			n = len(b)
		}
		//redvet:ignore noalloc amortized arena growth: one 64KB chunk per ~64KB of interned tweet strings; the leak test pins this flat under Discard
		d.chunk = make([]byte, n)
		d.off = 0
		d.gen++
		arenaChunksPool.Add(1)
	}
	start := d.off
	copy(d.chunk[start:], b)
	d.off += len(b)
	internedBytes.Add(int64(len(b)))
	return unsafe.String(&d.chunk[start], len(b))
}

//redvet:noalloc gate=IngressDecode
func (d *Decoder) skipWS() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\r', '\n':
			d.pos++
		default:
			return
		}
	}
}

// literalNull consumes the literal "null".
//
//redvet:noalloc gate=IngressDecode
func (d *Decoder) literalNull() error {
	data := d.data
	p := d.pos
	if p+4 > len(data) || data[p] != 'n' || data[p+1] != 'u' || data[p+2] != 'l' || data[p+3] != 'l' {
		return errDecodeSyntax
	}
	d.pos = p + 4
	return nil
}

// decodeTweet parses the top-level tweet object; d.pos sits on '{'.
//
//redvet:noalloc gate=IngressDecode
func (d *Decoder) decodeTweet(dst *Tweet) error {
	d.pos++
	d.skipWS()
	if d.pos < len(d.data) && d.data[d.pos] == '}' {
		d.pos++
		return nil
	}
	for {
		key, err := d.readKey()
		if err != nil {
			return err
		}
		switch {
		case keyMatches(key, "id_str"):
			err = d.stringField(&dst.IDStr)
		case keyMatches(key, "text"):
			err = d.stringField(&dst.Text)
		case keyMatches(key, "created_at"):
			err = d.stringField(&dst.CreatedAt)
		case keyMatches(key, "user"):
			// Duplicate user objects merge rather than reset:
			// json.Unmarshal decodes into the existing struct value.
			err = d.decodeUser(&dst.User)
		case keyMatches(key, "label"):
			err = d.stringField(&dst.Label)
		case keyMatches(key, "day"):
			err = d.intField(&dst.Day)
		default:
			err = d.skipValue(2)
		}
		if err != nil {
			return err
		}
		more, err := d.objectNext()
		if err != nil {
			return err
		}
		if !more {
			return nil
		}
	}
}

// decodeUser parses a user-field value: null (no-op) or an object.
//
//redvet:noalloc gate=IngressDecode
func (d *Decoder) decodeUser(dst *User) error {
	if d.pos >= len(d.data) {
		return errDecodeEnd
	}
	if d.data[d.pos] == 'n' {
		return d.literalNull()
	}
	if d.data[d.pos] != '{' {
		return errDecodeType
	}
	d.pos++
	d.skipWS()
	if d.pos < len(d.data) && d.data[d.pos] == '}' {
		d.pos++
		return nil
	}
	for {
		key, err := d.readKey()
		if err != nil {
			return err
		}
		switch {
		case keyMatches(key, "id_str"):
			err = d.stringField(&dst.IDStr)
		case keyMatches(key, "screen_name"):
			err = d.stringField(&dst.ScreenName)
		case keyMatches(key, "created_at"):
			err = d.stringField(&dst.CreatedAt)
		case keyMatches(key, "followers_count"):
			err = d.intField(&dst.FollowersCount)
		case keyMatches(key, "friends_count"):
			err = d.intField(&dst.FriendsCount)
		case keyMatches(key, "statuses_count"):
			err = d.intField(&dst.StatusesCount)
		case keyMatches(key, "listed_count"):
			err = d.intField(&dst.ListedCount)
		default:
			err = d.skipValue(3)
		}
		if err != nil {
			return err
		}
		more, err := d.objectNext()
		if err != nil {
			return err
		}
		if !more {
			return nil
		}
	}
}

// readKey consumes a quoted object key plus the following colon and
// whitespace, returning the unquoted key bytes (valid only until the next
// decoder call).
//
//redvet:noalloc gate=IngressDecode
func (d *Decoder) readKey() ([]byte, error) {
	if d.pos >= len(d.data) || d.data[d.pos] != '"' {
		return nil, errDecodeSyntax
	}
	key, err := d.unquote()
	if err != nil {
		return nil, err
	}
	d.skipWS()
	if d.pos >= len(d.data) || d.data[d.pos] != ':' {
		return nil, errDecodeSyntax
	}
	d.pos++
	d.skipWS()
	return key, nil
}

// objectNext consumes the separator after an object member: ',' continues
// the member loop, '}' ends it.
//
//redvet:noalloc gate=IngressDecode
func (d *Decoder) objectNext() (bool, error) {
	d.skipWS()
	if d.pos >= len(d.data) {
		return false, errDecodeEnd
	}
	switch d.data[d.pos] {
	case ',':
		d.pos++
		d.skipWS()
		return true, nil
	case '}':
		d.pos++
		return false, nil
	}
	return false, errDecodeSyntax
}

// stringField decodes a string value (or null no-op) into dst, interning
// the bytes into the arena.
//
//redvet:noalloc gate=IngressDecode
func (d *Decoder) stringField(dst *string) error {
	if d.pos >= len(d.data) {
		return errDecodeEnd
	}
	switch d.data[d.pos] {
	case '"':
		b, err := d.unquote()
		if err != nil {
			return err
		}
		*dst = d.intern(b)
		return nil
	case 'n':
		return d.literalNull()
	}
	return errDecodeType
}

// intField decodes an integer value (or null no-op) into dst with
// json.Unmarshal semantics: the literal must satisfy the JSON number
// grammar and parse as a base-10 int64; fractions, exponents, and
// overflow are errors.
//
//redvet:noalloc gate=IngressDecode
func (d *Decoder) intField(dst *int) error {
	data := d.data
	if d.pos >= len(data) {
		return errDecodeEnd
	}
	c := data[d.pos]
	if c == 'n' {
		return d.literalNull()
	}
	if c != '-' && (c < '0' || c > '9') {
		return errDecodeType
	}
	neg := false
	p := d.pos
	if c == '-' {
		neg = true
		p++
		if p >= len(data) || data[p] < '0' || data[p] > '9' {
			return errDecodeSyntax
		}
	}
	// Accumulate negatively so math.MinInt64 round-trips.
	const cutoff = math.MinInt64 / 10
	var v int64
	if data[p] == '0' {
		p++
	} else {
		for p < len(data) && data[p] >= '0' && data[p] <= '9' {
			dig := int64(data[p] - '0')
			if v < cutoff {
				return errDecodeIntRange
			}
			v *= 10
			if v < math.MinInt64+dig {
				return errDecodeIntRange
			}
			v -= dig
			p++
		}
	}
	if p < len(data) {
		switch data[p] {
		case '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
			// Leading zero followed by digits: syntax error.
			return errDecodeSyntax
		case '.', 'e', 'E':
			// Valid JSON number but not an integer: json.Unmarshal
			// rejects it for an int field after validating the
			// grammar; any error is equivalent for the oracle.
			return errDecodeType
		}
	}
	if !neg {
		if v == math.MinInt64 {
			return errDecodeIntRange
		}
		v = -v
	}
	d.pos = p
	*dst = int(v)
	return nil
}

// unquote consumes a quoted string starting at d.pos (which must sit on
// the opening '"') and returns its unescaped bytes: a zero-copy span of
// the input when no rewriting is needed, otherwise the reused scratch
// buffer. Escape handling matches encoding/json exactly, including UTF-16
// surrogate pairing and U+FFFD repair of invalid UTF-8.
//
//redvet:noalloc gate=IngressDecode
func (d *Decoder) unquote() ([]byte, error) {
	data := d.data
	start := d.pos + 1
	clean := true
	for i := start; i < len(data); i++ {
		c := data[i]
		if c == '"' {
			if clean {
				d.pos = i + 1
				return data[start:i], nil
			}
			break
		}
		if c == '\\' {
			return d.unquoteSlow(start)
		}
		if c < 0x20 {
			return nil, errDecodeSyntax
		}
		if c >= utf8.RuneSelf {
			clean = false
		}
	}
	if clean {
		return nil, errDecodeEnd
	}
	// High bytes but no escapes: the span is returnable as-is when it is
	// valid UTF-8; otherwise rewrite with replacement runes.
	for i := start; i < len(data); i++ {
		if data[i] == '"' {
			if utf8.Valid(data[start:i]) {
				d.pos = i + 1
				return data[start:i], nil
			}
			break
		}
	}
	return d.unquoteSlow(start)
}

// unquoteSlow rewrites a quoted string into the scratch buffer, handling
// escapes and invalid-UTF-8 repair; start indexes the byte after the
// opening quote.
//
//redvet:noalloc gate=IngressDecode
func (d *Decoder) unquoteSlow(start int) ([]byte, error) {
	data := d.data
	b := d.scratch[:0]
	i := start
	for i < len(data) {
		c := data[i]
		switch {
		case c == '"':
			d.pos = i + 1
			d.scratch = b
			return b, nil
		case c == '\\':
			i++
			if i >= len(data) {
				return nil, errDecodeEnd
			}
			switch data[i] {
			case '"':
				b = append(b, '"')
				i++
			case '\\':
				b = append(b, '\\')
				i++
			case '/':
				b = append(b, '/')
				i++
			case 'b':
				b = append(b, '\b')
				i++
			case 'f':
				b = append(b, '\f')
				i++
			case 'n':
				b = append(b, '\n')
				i++
			case 'r':
				b = append(b, '\r')
				i++
			case 't':
				b = append(b, '\t')
				i++
			case 'u':
				rr := d.getu4(i + 1)
				if rr < 0 {
					return nil, errDecodeSyntax
				}
				i += 5
				if utf16.IsSurrogate(rr) {
					rr1 := rune(-1)
					if i+1 < len(data) && data[i] == '\\' && data[i+1] == 'u' {
						rr1 = d.getu4(i + 2)
					}
					if rr1 >= 0 {
						if dec := utf16.DecodeRune(rr, rr1); dec != unicode.ReplacementChar {
							i += 6
							b = utf8.AppendRune(b, dec)
							continue
						}
					}
					rr = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, rr)
			default:
				return nil, errDecodeSyntax
			}
		case c < 0x20:
			return nil, errDecodeSyntax
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, n := utf8.DecodeRune(data[i:])
			if r == utf8.RuneError && n == 1 {
				b = utf8.AppendRune(b, unicode.ReplacementChar)
				i++
			} else {
				b = append(b, data[i:i+n]...)
				i += n
			}
		}
	}
	return nil, errDecodeEnd
}

// getu4 parses 4 hex digits at index i, returning -1 when absent or
// malformed.
//
//redvet:noalloc gate=IngressDecode
func (d *Decoder) getu4(i int) rune {
	data := d.data
	if i+4 > len(data) {
		return -1
	}
	var r rune
	for _, c := range data[i : i+4] {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c = c - 'a' + 10
		case c >= 'A' && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// keyMatches reports whether an unquoted key equals a lowercase-ASCII
// field name under encoding/json's fold rules (bytes.EqualFold: Unicode
// simple case folding, so U+017F matches 's' and U+212A matches 'k').
//
//redvet:noalloc gate=IngressDecode
func keyMatches(key []byte, name string) bool {
	i := 0
	for j := 0; j < len(name); j++ {
		if i >= len(key) {
			return false
		}
		c := key[i]
		if c < utf8.RuneSelf {
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c != name[j] {
				return false
			}
			i++
			continue
		}
		r, n := utf8.DecodeRune(key[i:])
		if !foldsToASCII(r, name[j]) {
			return false
		}
		i += n
	}
	return i == len(key)
}

// foldsToASCII reports whether rune r case-folds to the lowercase ASCII
// letter c via Unicode simple folding.
//
//redvet:noalloc gate=IngressDecode
func foldsToASCII(r rune, c byte) bool {
	if c < 'a' || c > 'z' {
		return false
	}
	for f := unicode.SimpleFold(r); f != r; f = unicode.SimpleFold(f) {
		if f == rune(c) {
			return true
		}
	}
	return false
}

// skipValue consumes one well-formed JSON value of any type (unknown
// fields), validating syntax exactly as encoding/json's scanner does;
// depth is the nesting depth of the value if it is a container.
//
//redvet:noalloc gate=IngressDecode
func (d *Decoder) skipValue(depth int) error {
	data := d.data
	if d.pos >= len(data) {
		return errDecodeEnd
	}
	switch c := data[d.pos]; {
	case c == '{':
		if depth > maxDecodeDepth {
			return errDecodeDepth
		}
		d.pos++
		d.skipWS()
		if d.pos < len(data) && data[d.pos] == '}' {
			d.pos++
			return nil
		}
		for {
			if _, err := d.readKey(); err != nil {
				return err
			}
			if err := d.skipValue(depth + 1); err != nil {
				return err
			}
			more, err := d.objectNext()
			if err != nil {
				return err
			}
			if !more {
				return nil
			}
		}
	case c == '[':
		if depth > maxDecodeDepth {
			return errDecodeDepth
		}
		d.pos++
		d.skipWS()
		if d.pos < len(data) && data[d.pos] == ']' {
			d.pos++
			return nil
		}
		for {
			if err := d.skipValue(depth + 1); err != nil {
				return err
			}
			d.skipWS()
			if d.pos >= len(data) {
				return errDecodeEnd
			}
			switch data[d.pos] {
			case ',':
				d.pos++
				d.skipWS()
			case ']':
				d.pos++
				return nil
			default:
				return errDecodeSyntax
			}
		}
	case c == '"':
		return d.skipString()
	case c == 't':
		if d.pos+4 > len(data) || data[d.pos+1] != 'r' || data[d.pos+2] != 'u' || data[d.pos+3] != 'e' {
			return errDecodeSyntax
		}
		d.pos += 4
		return nil
	case c == 'f':
		if d.pos+5 > len(data) || data[d.pos+1] != 'a' || data[d.pos+2] != 'l' || data[d.pos+3] != 's' || data[d.pos+4] != 'e' {
			return errDecodeSyntax
		}
		d.pos += 5
		return nil
	case c == 'n':
		return d.literalNull()
	case c == '-' || (c >= '0' && c <= '9'):
		return d.skipNumber()
	}
	return errDecodeSyntax
}

// skipString validates a quoted string without unescaping: escapes and
// control characters are checked (as the scanner does) but UTF-8 is not.
//
//redvet:noalloc gate=IngressDecode
func (d *Decoder) skipString() error {
	data := d.data
	i := d.pos + 1
	for i < len(data) {
		c := data[i]
		switch {
		case c == '"':
			d.pos = i + 1
			return nil
		case c == '\\':
			i++
			if i >= len(data) {
				return errDecodeEnd
			}
			switch data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				if d.getu4(i+1) < 0 {
					return errDecodeSyntax
				}
				i += 5
			default:
				return errDecodeSyntax
			}
		case c < 0x20:
			return errDecodeSyntax
		default:
			i++
		}
	}
	return errDecodeEnd
}

// skipNumber validates a JSON number literal (the scanner grammar:
// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?).
//
//redvet:noalloc gate=IngressDecode
func (d *Decoder) skipNumber() error {
	data := d.data
	p := d.pos
	if data[p] == '-' {
		p++
		if p >= len(data) || data[p] < '0' || data[p] > '9' {
			return errDecodeSyntax
		}
	}
	if data[p] == '0' {
		p++
	} else {
		for p < len(data) && data[p] >= '0' && data[p] <= '9' {
			p++
		}
	}
	if p < len(data) && data[p] >= '0' && data[p] <= '9' {
		// Digits after a leading zero.
		return errDecodeSyntax
	}
	if p < len(data) && data[p] == '.' {
		p++
		if p >= len(data) || data[p] < '0' || data[p] > '9' {
			return errDecodeSyntax
		}
		for p < len(data) && data[p] >= '0' && data[p] <= '9' {
			p++
		}
	}
	if p < len(data) && (data[p] == 'e' || data[p] == 'E') {
		p++
		if p < len(data) && (data[p] == '+' || data[p] == '-') {
			p++
		}
		if p >= len(data) || data[p] < '0' || data[p] > '9' {
			return errDecodeSyntax
		}
		for p < len(data) && data[p] >= '0' && data[p] <= '9' {
			p++
		}
	}
	d.pos = p
	return nil
}
