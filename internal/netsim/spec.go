package netsim

import (
	"errors"
	"fmt"
	"io/fs"
	"sort"
	"strconv"
	"strings"
	"unicode"
)

// The declarative spec layer: a small expression grammar that builds
// combinator trees (compose.go) out of catalog names, so arbitrary
// scenario mixtures are definable without writing Go — on the twsim
// and twmodule command lines, in lesson-authoring scripts, and in
// every served request.
//
// Grammar (whitespace is free between tokens):
//
//	expr     := term [ '@' duration ]
//	term     := name
//	         | 'overlay'  '(' expr ',' expr {',' expr} ')'
//	         | 'sequence' '(' expr ',' expr {',' expr} ')'
//	         | 'dilate'   '(' expr ',' number ')'
//	         | 'amplify'  '(' expr ',' integer ')'
//	         | 'relabel'  '(' expr ',' name '=' name {',' name '=' name} ')'
//	duration := number [ 's' ]
//	name     := letter { letter | digit | '_' | '-' }
//
// A bare name resolves against the fixed scenario catalog at parse
// time; a mixture is reused by nesting its expression. expr@10s pins
// the sub-expression's duration to ten seconds; directly inside
// sequence(...) it also sizes the step's slot, elsewhere it wraps the
// expression with Timed.

// ParseSpec resolves a spec — a bare catalog name or a composition
// expression — into a runnable Scenario. It is the one resolver every
// front-end uses: a bare name is a single map lookup, so resolving a
// catalog name per request costs no parse, and an unknown bare name
// fails with the catalog listing.
func ParseSpec(src string) (Scenario, error) {
	name := strings.TrimSpace(src)
	if s, ok := catalog[name]; ok {
		return s, nil
	}
	if !strings.ContainsAny(name, "()@=,") {
		return nil, errors.New(unknownScenario(name))
	}
	p := &specParser{src: src}
	p.skipSpace()
	s, _, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, p.errorf("unexpected %q after expression", p.rest())
	}
	return s, nil
}

// SpecString renders a scenario as its canonical spec expression —
// the normal form of the composition algebra. For any scenario whose
// leaves are catalog entries, ParseSpec(SpecString(s)) builds an
// equivalent scenario and the rendering is stable across the round
// trip:
//
//	SpecString(ParseSpec(SpecString(s))) == SpecString(s)
//
// which is what makes it the canonical cache key of the api layer:
// two requests naming the same mixture — however they spelled it —
// normalize to one key. Normalization also collapses redundant
// nesting the grammar cannot express (a Timed directly inside a
// Timed keeps only the inner, binding pin). Scenarios outside the
// combinator algebra render as their catalog name.
func SpecString(s Scenario) string {
	switch v := s.(type) {
	case overlayScenario:
		parts := make([]string, len(v.components))
		for i, c := range v.components {
			parts[i] = SpecString(c)
		}
		return "overlay(" + strings.Join(parts, ",") + ")"
	case sequenceScenario:
		parts := make([]string, len(v.steps))
		for i, st := range v.steps {
			parts[i] = SpecString(st.Scenario)
			if st.Duration > 0 {
				parts[i] += "@" + formatSeconds(st.Duration)
			}
		}
		return "sequence(" + strings.Join(parts, ",") + ")"
	case dilateScenario:
		return "dilate(" + SpecString(v.inner) + "," + formatFloat(v.factor) + ")"
	case amplifyScenario:
		return "amplify(" + SpecString(v.inner) + "," + strconv.Itoa(v.n) + ")"
	case relabelScenario:
		pairs := make([]string, 0, len(v.mapping))
		for from, to := range v.mapping {
			pairs = append(pairs, from+"="+to)
		}
		sort.Strings(pairs)
		return "relabel(" + SpecString(v.inner) + "," + strings.Join(pairs, ",") + ")"
	case timedScenario:
		if inner, ok := v.inner.(timedScenario); ok {
			// The inner pin wins (it overwrites Duration last), and
			// the grammar has no way to spell a double pin anyway.
			return SpecString(inner)
		}
		return SpecString(v.inner) + "@" + formatSeconds(v.dur)
	default:
		return s.Name()
	}
}

// specParser is a recursive-descent parser over the spec grammar.
type specParser struct {
	src string
	pos int
}

// unknownScenario is the message an unknown catalog name fails with,
// bare or nested: it lists the catalog, because API clients have no
// twsim -list to ask.
func unknownScenario(name string) string {
	return fmt.Sprintf("unknown scenario %q; available: %s (or compose one with a spec expression)", name, catalogList)
}

func (p *specParser) errorf(format string, args ...interface{}) error {
	return fmt.Errorf("netsim: spec at byte %d: %s", p.pos, fmt.Sprintf(format, args...))
}

func (p *specParser) rest() string {
	r := p.src[p.pos:]
	if len(r) > 20 {
		r = r[:20] + "…"
	}
	return r
}

func (p *specParser) skipSpace() {
	for p.pos < len(p.src) && unicode.IsSpace(rune(p.src[p.pos])) {
		p.pos++
	}
}

// peek returns the next byte without consuming it, 0 at end of input.
func (p *specParser) peek() byte {
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

// accept consumes ch if it is next, reporting whether it did.
func (p *specParser) accept(ch byte) bool {
	p.skipSpace()
	if p.peek() == ch {
		p.pos++
		return true
	}
	return false
}

// expect consumes ch or fails.
func (p *specParser) expect(ch byte) error {
	if !p.accept(ch) {
		return p.errorf("expected %q, found %q", string(ch), p.rest())
	}
	return nil
}

// ident consumes a name token.
func (p *specParser) ident() (string, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == '_' || c == '-' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c)) {
			p.pos++
			continue
		}
		break
	}
	if p.pos == start {
		return "", p.errorf("expected a name, found %q", p.rest())
	}
	return p.src[start:p.pos], nil
}

// number consumes a positive decimal number.
func (p *specParser) number() (float64, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == '.' || unicode.IsDigit(rune(c)) {
			p.pos++
			continue
		}
		break
	}
	if p.pos == start {
		return 0, p.errorf("expected a number, found %q", p.rest())
	}
	f, err := strconv.ParseFloat(p.src[start:p.pos], 64)
	if err != nil {
		return 0, p.errorf("bad number %q", p.src[start:p.pos])
	}
	return f, nil
}

// duration consumes a number with an optional trailing 's' unit.
func (p *specParser) duration() (float64, error) {
	f, err := p.number()
	if err != nil {
		return 0, err
	}
	if p.peek() == 's' {
		p.pos++
	}
	if f <= 0 {
		return 0, p.errorf("duration must be positive, got %g", f)
	}
	return f, nil
}

// parseExpr parses one expression with an optional @duration suffix.
// It returns the scenario and, when an explicit duration annotation
// was present, its value (for sequence slot sizing); dur is 0
// otherwise.
func (p *specParser) parseExpr() (s Scenario, dur float64, err error) {
	s, err = p.parseTerm()
	if err != nil {
		return nil, 0, err
	}
	if p.accept('@') {
		dur, err = p.duration()
		if err != nil {
			return nil, 0, err
		}
		return Timed(s, dur), dur, nil
	}
	return s, 0, nil
}

// parseTerm parses a catalog name or a combinator call.
func (p *specParser) parseTerm() (Scenario, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.peek() != '(' {
		s, ok := LookupScenario(name)
		if !ok {
			return nil, p.errorf("%s", unknownScenario(name))
		}
		return s, nil
	}
	p.pos++ // consume '('
	switch name {
	case "overlay":
		return p.parseVariadic(name, Overlay)
	case "sequence":
		return p.parseSequence()
	case "dilate":
		return p.parseDilate()
	case "amplify":
		return p.parseAmplify()
	case "relabel":
		return p.parseRelabel()
	default:
		return nil, p.errorf("unknown combinator %q (want overlay, sequence, dilate, amplify, or relabel)", name)
	}
}

// parseVariadic parses '(' already consumed: expr {',' expr} ')' with
// at least two components, handing them to the combinator.
func (p *specParser) parseVariadic(name string, combine func(...Scenario) Scenario) (Scenario, error) {
	var components []Scenario
	for {
		s, _, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		components = append(components, s)
		if p.accept(',') {
			continue
		}
		break
	}
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	if len(components) < 2 {
		return nil, p.errorf("%s needs at least two components, got %d", name, len(components))
	}
	return combine(components...), nil
}

// parseSequence parses sequence steps, turning @duration annotations
// on direct children into slot durations.
func (p *specParser) parseSequence() (Scenario, error) {
	var steps []SeqStep
	for {
		s, dur, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		// A timed direct child sizes the slot; the Timed wrapper would
		// pin the same duration redundantly, so unwrap it.
		if dur > 0 {
			if t, ok := s.(timedScenario); ok {
				s = t.inner
			}
		}
		steps = append(steps, SeqStep{Scenario: s, Duration: dur})
		if p.accept(',') {
			continue
		}
		break
	}
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	if len(steps) < 2 {
		return nil, p.errorf("sequence needs at least two components, got %d", len(steps))
	}
	return SequenceSteps(steps...), nil
}

// parseDilate parses dilate(expr, factor).
func (p *specParser) parseDilate() (Scenario, error) {
	s, _, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(','); err != nil {
		return nil, err
	}
	f, err := p.number()
	if err != nil {
		return nil, err
	}
	if f <= 0 {
		return nil, p.errorf("dilate factor must be positive, got %g", f)
	}
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	return Dilate(s, f), nil
}

// parseAmplify parses amplify(expr, n).
func (p *specParser) parseAmplify() (Scenario, error) {
	s, _, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(','); err != nil {
		return nil, err
	}
	f, err := p.number()
	if err != nil {
		return nil, err
	}
	n := int(f)
	if float64(n) != f || n < 1 {
		return nil, p.errorf("amplify count must be a positive integer, got %g", f)
	}
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	return Amplify(s, n), nil
}

// parseRelabel parses relabel(expr, A=B {, C=D}).
func (p *specParser) parseRelabel() (Scenario, error) {
	s, _, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	mapping := map[string]string{}
	for p.accept(',') {
		from, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect('='); err != nil {
			return nil, err
		}
		to, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, dup := mapping[from]; dup {
			return nil, p.errorf("relabel maps %q twice", from)
		}
		mapping[from] = to
	}
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	if len(mapping) == 0 {
		return nil, p.errorf("relabel needs at least one host=host pair")
	}
	return Relabel(s, mapping), nil
}

// ErrSpecNotFound marks a LoadSpec argument that was neither a
// catalog name nor a spec file present on disk. Callers branch on it
// with errors.Is to tell "you named something that does not exist"
// (a user typo) apart from a spec that exists but does not parse.
var ErrSpecNotFound = errors.New("spec file not found")

// LoadSpec resolves a -spec CLI argument. Text containing spec
// syntax (parentheses, '@', '=', commas) is parsed directly as an
// expression; a bare catalog name resolves to its scenario; anything
// else is treated as a path to a spec file, whose contents (sans
// surrounding whitespace) are parsed. readFile abstracts the
// filesystem so callers outside CLIs can pass nil to forbid file
// lookups.
//
// The error paths stay distinguishable: a missing file wraps
// ErrSpecNotFound (and the underlying fs.ErrNotExist), any other
// read failure wraps the I/O error, and a file that reads but does
// not parse wraps the parse error — all three carry the file path.
func LoadSpec(arg string, readFile func(string) ([]byte, error)) (Scenario, error) {
	if readFile == nil || strings.ContainsAny(arg, "()@=,") {
		return ParseSpec(arg)
	}
	if _, ok := LookupScenario(strings.TrimSpace(arg)); ok {
		return ParseSpec(arg)
	}
	data, err := readFile(arg)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return nil, fmt.Errorf("netsim: spec %q is neither a catalog name nor a readable spec file: %w: %w",
			arg, ErrSpecNotFound, err)
	case err != nil:
		return nil, fmt.Errorf("netsim: read spec file %q: %w", arg, err)
	}
	s, err := ParseSpec(strings.TrimSpace(string(data)))
	if err != nil {
		return nil, fmt.Errorf("netsim: spec file %q: %w", arg, err)
	}
	return s, nil
}
