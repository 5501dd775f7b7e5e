package pipeline

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit: a document whose objects
// and arrays nest deeper than this, counted from its root, is malformed.
const maxDepth = 10000

// Parse decodes a JSON pipeline body in one pass over its bytes: a
// hand-written decoder lexes the document, checks its syntax, and
// decodes each stage body straight into its typed field. The only
// allocations are the values the returned Pipeline holds; each slice in
// a stage body is sized once by a look-ahead count of its elements. Errors caused by
// one stage are *StageError values naming its index and type.
//
// Parse accepts and refuses exactly what decoding the whole document
// with encoding/json under DisallowUnknownFields, and then each stage
// the same way, would:
//   - a malformed document wins over any other refusal, and an unknown
//     top-level field or a "stages" value that is not an array or null
//     wins over a stage's error;
//   - a stage is an object with exactly one key, one of the six stage
//     names matched exactly; a repeated key decodes into the same field
//     again, so a second "query" merges into the first GraphSpec, and
//     a repeated top-level "stages" replaces the first;
//   - field names inside a stage body, and the top-level "stages",
//     match case-insensitively under Unicode simple folding;
//   - unknown fields and type mismatches are refused; null leaves an int,
//     a string, a float or an edge triple alone and nils a slice or a
//     pointer; integers refuse fractions, exponents and overflow, and
//     floats refuse overflow;
//   - an array decodes into an existing slice element by element, and an
//     edge triple drops extra elements and zero-fills missing ones;
//   - escapes, and invalid UTF-8 read as U+FFFD, are decoded in keys
//     and values; bytes after the document are ignored; nesting past
//     10,000 levels, counted from the document's root, is malformed.
func Parse(data []byte) (*Pipeline, error) {
	p := parser{data: data}
	return p.document()
}

// parser is Parse's state. A syntax error is sticky: once err is set,
// every read sees the end of the input, so each loop ends and the
// document is refused with it. bad is the first type mismatch or unknown
// field met in the value being decoded; decoding reads on past it.
type parser struct {
	data    []byte
	pos     int
	depth   int
	err     error
	bad     error
	scratch []byte // unescaped keys
}

// document decodes the top-level object.
func (p *parser) document() (*Pipeline, error) {
	var (
		stages   []Stage
		stageErr *StageError
		docErr   error
	)
	if c := p.peek(); c != '{' {
		if c == 0 {
			p.fail("looking for beginning of value")
			return nil, fmt.Errorf("pipeline: %v", p.err)
		}
		return nil, fmt.Errorf("pipeline: want a JSON object, got %s", kindOf(c))
	}
	for more := p.enter('}'); more; more = p.next('}') {
		key := p.key()
		switch {
		case string(key) != "stages" && !strings.EqualFold(string(key), "stages"):
			if docErr == nil && p.err == nil {
				docErr = fmt.Errorf("json: unknown field %q", key)
			}
			p.skip()
		case docErr != nil:
			p.skip()
		default:
			stages, stageErr, docErr = p.stages()
		}
	}
	switch {
	case p.err != nil:
		return nil, fmt.Errorf("pipeline: %v", p.err)
	case docErr != nil:
		return nil, fmt.Errorf("pipeline: %v", docErr)
	case len(stages) == 0:
		return nil, fmt.Errorf("pipeline: no stages (want at least one of filter, search, topk, limit, count, group_by)")
	case stageErr != nil:
		return nil, stageErr
	}
	return &Pipeline{Stages: stages}, nil
}

// stages decodes the value of a "stages" key: null or an array of stage
// objects. The first stage's refusal comes back as stageErr, and the
// stages after it are only syntax-checked; typeErr refuses the document.
func (p *parser) stages() (stages []Stage, stageErr *StageError, typeErr error) {
	switch c := p.peek(); c {
	case 'n':
		p.literal("null")
		return nil, nil, nil
	case '[':
	default:
		p.skip()
		return nil, nil, fmt.Errorf("json: cannot unmarshal %s into stages of type []pipeline.Stage", kindOf(c))
	}
	for more := p.enter(']'); more; more = p.next(']') {
		// Stages grow by doubling: a look-ahead count would read the
		// whole document again.
		i := len(stages)
		if i == cap(stages) {
			stages = slices.Grow(stages, max(i, 2))
		}
		stages = stages[:i+1]
		if stageErr != nil {
			p.skip()
		} else {
			stageErr = p.stage(i, &stages[i])
		}
	}
	return stages, stageErr, nil
}

// stage decodes stage i's object into st and returns its refusal, nil
// if none. Each occurrence of the stage's one key decodes into the same
// field, as a struct decode would; once a second distinct key or a body
// error is seen, the rest of the object is only syntax-checked.
func (p *parser) stage(i int, st *Stage) *StageError {
	switch c := p.peek(); c {
	case 'n':
		p.literal("null")
		return stageErrf(i, "", "want exactly one stage-type key per stage, got 0")
	case '{':
	default:
		p.skip()
		return stageErrf(i, "", "not a JSON object: got %s", kindOf(c))
	}
	var (
		name    string
		keys    int
		known   = true
		bodyErr error
	)
	for more := p.enter('}'); more; more = p.next('}') {
		key := p.key()
		switch {
		case keys == 0:
			name, keys = intern(key, stageNames), 1
		case keys == 1 && string(key) != name:
			keys = 2
		}
		if keys > 1 || bodyErr != nil {
			p.skip()
			continue
		}
		p.bad = nil
		switch name {
		case "filter":
			p.filter(&st.Filter)
		case "search":
			p.search(&st.Search)
		case "topk":
			p.topK(&st.TopK)
		case "limit":
			p.limit(&st.Limit)
		case "count":
			p.count(&st.Count)
		case "group_by":
			p.groupBy(&st.GroupBy)
		default:
			known = false
			p.skip()
		}
		bodyErr = p.bad
	}
	switch {
	case keys == 0:
		return stageErrf(i, "", "want exactly one stage-type key per stage, got 0")
	case keys > 1:
		return stageErrf(i, "", "want exactly one stage-type key per stage, got more than one")
	case !known:
		return stageErrf(i, name, "unknown stage type (want filter, search, topk, limit, count or group_by)")
	case bodyErr != nil:
		return stageErrf(i, name, "%v", bodyErr)
	}
	if _, _, set := st.parts(); set == 0 {
		return stageErrf(i, name, "stage body is null")
	}
	return nil
}

// intern returns b as a string, without allocating when it is one of
// known.
func intern(b []byte, known []string) string {
	for _, k := range known {
		if string(b) == k {
			return k
		}
	}
	return string(b)
}

// Stage names, and the field names of the stage bodies and the structs
// in them.
var (
	stageNames       = []string{"filter", "search", "topk", "limit", "count", "group_by"}
	filterFields     = []string{"min_vertices", "max_vertices", "min_edges", "max_edges", "vertex_labels", "edge_labels", "dims_all", "dims_any", "min_ones", "max_ones"}
	labelCountFields = []string{"label", "min_count"}
	searchFields     = []string{"query", "k", "engine", "verify_factor", "max_candidates", "metric"}
	graphSpecFields  = []string{"labels", "edges"}
	topKFields       = []string{"k"}
	limitFields      = []string{"n"}
	groupByFields    = []string{"key", "bucket_width", "top"}
)

// field returns the name in names that key matches, "" if none: an
// exact match first, then a case-insensitive one, as encoding/json
// matches a struct field.
func field(key []byte, names []string) string {
	for _, n := range names {
		if string(key) == n {
			return n
		}
	}
	for _, n := range names {
		if strings.EqualFold(string(key), n) {
			return n
		}
	}
	return ""
}

// object readies *dst for the members of the JSON object at p.pos, the
// way encoding/json decodes into a pointer to a struct: null sets *dst
// to nil, an object allocates *dst if it is nil, and any other value is
// a type mismatch. It reports whether members follow, with the opening
// brace consumed.
func object[T any](p *parser, dst **T, typ string) bool {
	switch p.peek() {
	case 'n':
		*dst = nil
	case '{':
		if *dst == nil {
			*dst = new(T)
		}
	}
	return p.open('{', '}', typ)
}

// open reports whether the value at p.pos is a container with members
// or elements, consuming its opener: the decode of a struct or an array
// value, which null leaves alone and any other value mismatches.
func (p *parser) open(opener, closer byte, typ string) bool {
	switch p.peek() {
	case 'n':
		p.literal("null")
		return false
	case opener:
		return p.enter(closer)
	}
	p.mismatch(typ)
	return false
}

func (p *parser) filter(dst **Filter) {
	for more := object(p, dst, "pipeline.Filter"); more; more = p.next('}') {
		f, key := *dst, p.key()
		switch field(key, filterFields) {
		case "min_vertices":
			p.int(&f.MinVertices)
		case "max_vertices":
			p.int(&f.MaxVertices)
		case "min_edges":
			p.int(&f.MinEdges)
		case "max_edges":
			p.int(&f.MaxEdges)
		case "vertex_labels":
			p.labelCounts(&f.VertexLabels)
		case "edge_labels":
			p.labelCounts(&f.EdgeLabels)
		case "dims_all":
			p.ints(&f.DimsAll)
		case "dims_any":
			p.ints(&f.DimsAny)
		case "min_ones":
			p.int(&f.MinOnes)
		case "max_ones":
			p.int(&f.MaxOnes)
		default:
			p.unknown(key)
		}
	}
}

func (p *parser) search(dst **Search) {
	for more := object(p, dst, "pipeline.Search"); more; more = p.next('}') {
		s, key := *dst, p.key()
		switch field(key, searchFields) {
		case "query":
			p.graphSpec(&s.Query)
		case "k":
			p.int(&s.K)
		case "engine":
			p.string(&s.Engine)
		case "verify_factor":
			p.int(&s.VerifyFactor)
		case "max_candidates":
			p.int(&s.MaxCandidates)
		case "metric":
			p.string(&s.Metric)
		default:
			p.unknown(key)
		}
	}
}

func (p *parser) graphSpec(dst **GraphSpec) {
	for more := object(p, dst, "pipeline.GraphSpec"); more; more = p.next('}') {
		gs, key := *dst, p.key()
		switch field(key, graphSpecFields) {
		case "labels":
			p.ints(&gs.Labels)
		case "edges":
			p.edges(&gs.Edges)
		default:
			p.unknown(key)
		}
	}
}

func (p *parser) topK(dst **TopK) {
	for more := object(p, dst, "pipeline.TopK"); more; more = p.next('}') {
		if key := p.key(); field(key, topKFields) != "" {
			p.int(&(*dst).K)
		} else {
			p.unknown(key)
		}
	}
}

func (p *parser) limit(dst **Limit) {
	for more := object(p, dst, "pipeline.Limit"); more; more = p.next('}') {
		if key := p.key(); field(key, limitFields) != "" {
			p.int(&(*dst).N)
		} else {
			p.unknown(key)
		}
	}
}

func (p *parser) count(dst **Count) {
	for more := object(p, dst, "pipeline.Count"); more; more = p.next('}') {
		p.unknown(p.key())
	}
}

func (p *parser) groupBy(dst **GroupBy) {
	for more := object(p, dst, "pipeline.GroupBy"); more; more = p.next('}') {
		g, key := *dst, p.key()
		switch field(key, groupByFields) {
		case "key":
			p.string(&g.Key)
		case "bucket_width":
			p.float(&g.BucketWidth)
		case "top":
			p.int(&g.Top)
		default:
			p.unknown(key)
		}
	}
}

// array reports whether the value at p.pos is an array with elements,
// consuming its opening bracket, the way encoding/json decodes into a
// slice: null sets *dst to nil, [] to an empty slice, and any other
// value is a type mismatch.
func array[T any](p *parser, dst *[]T, typ string) bool {
	c := p.peek()
	more := p.open('[', ']', typ)
	switch {
	case c == 'n':
		*dst = nil
	case c == '[' && !more && p.err == nil:
		*dst = []T{}
	}
	return more
}

// grow readies element i of a slice being decoded, as encoding/json
// does: within the slice's capacity the element keeps what it held, so
// a repeated key decodes into the previous value, and past it the slice
// grows once, by the elements left in the array.
func grow[T any](p *parser, s []T, i int) []T {
	if i == cap(s) {
		s = slices.Grow(s, p.remaining())
	}
	if i == len(s) {
		s = s[:i+1]
	}
	return s
}

func (p *parser) ints(dst *[]int) {
	if !array(p, dst, "[]int") {
		return
	}
	s, i := *dst, 0
	for more := true; more; more = p.next(']') {
		s = grow(p, s, i)
		p.int(&s[i])
		i++
	}
	*dst = s[:i]
}

func (p *parser) labelCounts(dst *[]LabelCount) {
	if !array(p, dst, "[]pipeline.LabelCount") {
		return
	}
	s, i := *dst, 0
	for more := true; more; more = p.next(']') {
		s = grow(p, s, i)
		lc := &s[i]
		for more := p.open('{', '}', "pipeline.LabelCount"); more; more = p.next('}') {
			switch key := p.key(); field(key, labelCountFields) {
			case "label":
				p.int(&lc.Label)
			case "min_count":
				p.int(&lc.MinCount)
			default:
				p.unknown(key)
			}
		}
		i++
	}
	*dst = s[:i]
}

func (p *parser) edges(dst *[][3]int) {
	if !array(p, dst, "[][3]int") {
		return
	}
	s, i := *dst, 0
	for more := true; more; more = p.next(']') {
		s = grow(p, s, i)
		p.triple(&s[i])
		i++
	}
	*dst = s[:i]
}

// triple decodes an edge: elements past the third are skipped and
// missing ones zeroed, as encoding/json decodes into an array; null
// leaves it alone.
func (p *parser) triple(e *[3]int) {
	if p.peek() != '[' {
		p.open('[', ']', "[3]int")
		return
	}
	j := 0
	for more := p.enter(']'); more; more = p.next(']') {
		if j < len(e) {
			p.int(&e[j])
		} else {
			p.skip()
		}
		j++
	}
	for ; j < len(e); j++ {
		e[j] = 0
	}
}

// int decodes a number into an int field; null leaves it alone.
func (p *parser) int(dst *int) {
	switch c := p.peek(); {
	case c == 'n':
		p.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		num := p.number()
		if v, ok := atoi(num); ok {
			*dst = v
		} else {
			p.badf("json: cannot unmarshal number %s into a field of type int", num)
		}
	default:
		p.mismatch("int")
	}
}

// atoi parses a JSON number as encoding/json does for an int: a
// fraction, an exponent or a value outside int's range is refused.
func atoi(num []byte) (int, bool) {
	neg := len(num) > 0 && num[0] == '-'
	if neg {
		num = num[1:]
	}
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	var u uint64
	for _, c := range num {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if u > (limit-d)/10 {
			return 0, false
		}
		u = u*10 + d
	}
	if len(num) == 0 {
		return 0, false
	}
	if neg {
		return int(-u), true
	}
	return int(u), true
}

// float decodes a number into a float64 field; null leaves it alone.
func (p *parser) float(dst *float64) {
	switch c := p.peek(); {
	case c == 'n':
		p.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		num := p.number()
		if v, err := strconv.ParseFloat(string(num), 64); err == nil {
			*dst = v
		} else {
			p.badf("json: cannot unmarshal number %s into a field of type float64", num)
		}
	default:
		p.mismatch("float64")
	}
}

// string decodes a string into a string field; null leaves it alone.
// The values the stages know are returned without allocating.
func (p *parser) string(dst *string) {
	switch p.peek() {
	case 'n':
		p.literal("null")
		return
	case '"':
	default:
		p.mismatch("string")
		return
	}
	raw, plain := p.str()
	if !plain {
		raw = unquote(raw, nil)
	}
	*dst = intern(raw, knownValues)
}

// knownValues are the string values the stages know: engines, metrics
// and group_by keys.
var knownValues = []string{"mapped", "verified", "exact", "delta1", "delta2",
	KeyVertexLabel, KeyEdgeLabel, KeyEngine, KeyScoreBucket}

// mismatch records that the value at p.pos cannot decode into a typ and
// skips it.
func (p *parser) mismatch(typ string) {
	kind := kindOf(p.peek())
	p.skip()
	p.badf("json: cannot unmarshal %s into a field of type %s", kind, typ)
}

// unknown records an unknown field and skips its value.
func (p *parser) unknown(key []byte) {
	p.badf("json: unknown field %q", key)
	p.skip()
}

// badf records the first value error, unless the document is malformed.
func (p *parser) badf(format string, args ...any) {
	if p.bad == nil && p.err == nil {
		p.bad = fmt.Errorf(format, args...)
	}
}

// kindOf names the JSON type a value starting with c has.
func kindOf(c byte) string {
	switch c {
	case '{':
		return "object"
	case '[':
		return "array"
	case '"':
		return "string"
	case 't', 'f':
		return "bool"
	case 'n':
		return "null"
	}
	return "number"
}

// The lexer. Every read skips leading whitespace and does nothing after
// a syntax error.

// peek returns the next byte after whitespace: 0 at the end of the
// input or after a syntax error.
func (p *parser) peek() byte {
	if p.err != nil {
		return 0
	}
	for ; p.pos < len(p.data); p.pos++ {
		switch c := p.data[p.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// fail records a syntax error at p.pos.
func (p *parser) fail(context string) {
	switch {
	case p.err != nil:
	case p.pos >= len(p.data):
		p.err = fmt.Errorf("unexpected end of JSON input")
	default:
		p.err = fmt.Errorf("invalid character %q %s at offset %d", p.data[p.pos], context, p.pos)
	}
}

// enter consumes the opener of an object or array at p.pos and reports
// whether a member or element follows: false for an empty container or
// a syntax error.
func (p *parser) enter(closer byte) bool {
	if p.depth++; p.depth > maxDepth {
		p.fail("exceeding the maximum nesting depth")
		return false
	}
	p.pos++
	if p.peek() == closer {
		p.pos++
		p.depth--
		return false
	}
	return p.err == nil
}

// next consumes what follows a member or an element and reports whether
// another follows: true after a comma, false after the closer or a
// syntax error.
func (p *parser) next(closer byte) bool {
	switch p.peek() {
	case ',':
		p.pos++
		return true
	case closer:
		p.pos++
		p.depth--
		return false
	}
	p.fail("after a value in an object or array")
	return false
}

// key reads an object key and the colon after it, and returns the key
// unescaped: a slice of the input, or of scratch when it had escapes.
func (p *parser) key() []byte {
	if p.peek() != '"' {
		p.fail("looking for beginning of object key string")
		return nil
	}
	raw, plain := p.str()
	if p.peek() != ':' {
		p.fail("after object key")
		return nil
	}
	p.pos++
	if plain {
		return raw
	}
	p.scratch = unquote(raw, p.scratch[:0])
	return p.scratch
}

// skip checks the syntax of the value at p.pos and moves past it.
func (p *parser) skip() {
	switch c := p.peek(); c {
	case '{':
		for more := p.enter('}'); more; more = p.next('}') {
			p.key()
			p.skip()
		}
	case '[':
		for more := p.enter(']'); more; more = p.next(']') {
			p.skip()
		}
	case '"':
		p.str()
	case 't':
		p.literal("true")
	case 'f':
		p.literal("false")
	case 'n':
		p.literal("null")
	default:
		if c == '-' || '0' <= c && c <= '9' {
			p.number()
		} else {
			p.fail("looking for beginning of value")
		}
	}
}

// literal consumes the literal word at p.pos.
func (p *parser) literal(word string) {
	for i := 0; i < len(word); i++ {
		if p.pos >= len(p.data) || p.data[p.pos] != word[i] {
			p.fail("in literal " + word)
			return
		}
		p.pos++
	}
}

// number consumes the number at p.pos and returns its bytes.
func (p *parser) number() []byte {
	start := p.pos
	if p.data[p.pos] == '-' {
		p.pos++
	}
	switch {
	case p.pos < len(p.data) && p.data[p.pos] == '0':
		p.pos++
	case !p.digits():
		p.fail("in numeric literal")
		return nil
	}
	if p.pos < len(p.data) && p.data[p.pos] == '.' {
		p.pos++
		if !p.digits() {
			p.fail("after decimal point in numeric literal")
			return nil
		}
	}
	if p.pos < len(p.data) && (p.data[p.pos] == 'e' || p.data[p.pos] == 'E') {
		p.pos++
		if p.pos < len(p.data) && (p.data[p.pos] == '+' || p.data[p.pos] == '-') {
			p.pos++
		}
		if !p.digits() {
			p.fail("in exponent of numeric literal")
			return nil
		}
	}
	return p.data[start:p.pos]
}

// digits consumes a run of decimal digits and reports whether it was
// not empty.
func (p *parser) digits() bool {
	n := p.pos
	for p.pos < len(p.data) && '0' <= p.data[p.pos] && p.data[p.pos] <= '9' {
		p.pos++
	}
	return p.pos > n
}

// str consumes the string at p.pos and returns its raw contents, and
// whether they are plain: printable ASCII without escapes, equal to the
// string they encode.
func (p *parser) str() (raw []byte, plain bool) {
	start := p.pos + 1
	plain = true
	for p.pos = start; p.pos < len(p.data); p.pos++ {
		switch c := p.data[p.pos]; {
		case c == '"':
			p.pos++
			return p.data[start : p.pos-1], plain
		case c == '\\':
			plain = false
			if p.pos++; p.pos == len(p.data) {
				p.fail("in string escape code")
				return nil, false
			}
			switch p.data[p.pos] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for range 4 {
					if p.pos++; p.pos == len(p.data) || hex(p.data[p.pos]) < 0 {
						p.fail("in \\u hexadecimal character escape")
						return nil, false
					}
				}
			default:
				p.fail("in string escape code")
				return nil, false
			}
		case c < 0x20:
			p.fail("in string literal")
			return nil, false
		case c >= utf8.RuneSelf:
			plain = false
		}
	}
	p.fail("in string literal")
	return nil, false
}

// remaining counts the elements left in the array being read, from the
// element at p.pos to its closing bracket: a look-ahead that sizes a
// slice once. It checks nothing; the decode that follows does.
func (p *parser) remaining() int {
	n, depth := 1, 0
	for i := p.pos; i < len(p.data); i++ {
		switch p.data[i] {
		case '"':
			for i++; i < len(p.data) && p.data[i] != '"'; i++ {
				if p.data[i] == '\\' {
					i++
				}
			}
		case '[', '{':
			depth++
		case ']', '}':
			if depth == 0 {
				return n
			}
			depth--
		case ',':
			if depth == 0 {
				n++
			}
		}
	}
	return n
}

// unquote appends the string that the raw contents of a well-formed
// JSON string encode to buf, as encoding/json unquotes: escapes decoded,
// a surrogate pair combined, and a lone surrogate or a byte of invalid
// UTF-8 read as U+FFFD.
func unquote(s, buf []byte) []byte {
	for r := 0; r < len(s); {
		c := s[r]
		switch {
		case c == '\\':
			r++
			switch c = s[r]; c {
			case 'b':
				buf = append(buf, '\b')
			case 'f':
				buf = append(buf, '\f')
			case 'n':
				buf = append(buf, '\n')
			case 'r':
				buf = append(buf, '\r')
			case 't':
				buf = append(buf, '\t')
			case 'u':
				rr := hex4(s[r+1:])
				r += 5
				if utf16.IsSurrogate(rr) {
					rr1 := rune(-1)
					if len(s) >= r+6 && s[r] == '\\' && s[r+1] == 'u' {
						rr1 = hex4(s[r+2:])
					}
					if dec := utf16.DecodeRune(rr, rr1); dec != utf8.RuneError {
						buf = utf8.AppendRune(buf, dec)
						r += 6
						continue
					}
					rr = utf8.RuneError
				}
				buf = utf8.AppendRune(buf, rr)
				continue
			default: // '"', '\\', '/'
				buf = append(buf, c)
			}
			r++
		case c < utf8.RuneSelf:
			buf = append(buf, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			buf = utf8.AppendRune(buf, rr)
			r += size
		}
	}
	return buf
}

// hex4 decodes four hex digits.
func hex4(s []byte) rune {
	var r rune
	for _, c := range s[:4] {
		r = r<<4 | rune(hex(c))
	}
	return r
}

// hex returns the value of a hex digit, -1 for any other byte.
func hex(c byte) int {
	switch {
	case '0' <= c && c <= '9':
		return int(c - '0')
	case 'a' <= c && c <= 'f':
		return int(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return int(c - 'A' + 10)
	}
	return -1
}
