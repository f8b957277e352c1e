package p2pml

import (
	"fmt"
	"strings"

	"p2pm/internal/monoid"
	"p2pm/internal/xmltree"
	"p2pm/internal/xpath"
)

// Parse parses and validates a P2PML subscription.
func Parse(src string) (*Subscription, error) {
	p := &parser{src: src}
	sub, err := p.parseSubscription()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	p.consume(";")
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, p.errf("trailing input %q", snippet(p.src[p.pos:]))
	}
	sub.Source = src
	if err := Validate(sub); err != nil {
		return nil, err
	}
	return sub, nil
}

// MustParse is Parse that panics on error; for fixtures and tests.
func MustParse(src string) *Subscription {
	s, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return s
}

// ParseExpr parses a standalone P2PML expression (used by templates).
func ParseExpr(src string) (Expr, error) {
	p := &parser{src: src}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, p.errf("trailing input %q in expression", snippet(p.src[p.pos:]))
	}
	return e, nil
}

func snippet(s string) string {
	if len(s) > 24 {
		return s[:24] + "..."
	}
	return s
}

type parser struct {
	src string
	pos int
}

func (p *parser) errf(format string, args ...any) error {
	line := 1 + strings.Count(p.src[:p.pos], "\n")
	return fmt.Errorf("p2pml: line %d: %s", line, fmt.Sprintf(format, args...))
}

// skipSpace skips whitespace and %-to-end-of-line comments.
func (p *parser) skipSpace() {
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		case '%':
			for p.pos < len(p.src) && p.src[p.pos] != '\n' {
				p.pos++
			}
		default:
			return
		}
	}
}

func (p *parser) peek() byte {
	if p.pos < len(p.src) {
		return p.src[p.pos]
	}
	return 0
}

func (p *parser) consume(s string) bool {
	if strings.HasPrefix(p.src[p.pos:], s) {
		p.pos += len(s)
		return true
	}
	return false
}

func wordChar(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9' || b == '_'
}

// keyword consumes the given keyword (case-insensitive, word boundary).
func (p *parser) keyword(kw string) bool {
	p.skipSpace()
	end := p.pos + len(kw)
	if end > len(p.src) {
		return false
	}
	if !strings.EqualFold(p.src[p.pos:end], kw) {
		return false
	}
	if end < len(p.src) && wordChar(p.src[end]) {
		return false
	}
	p.pos = end
	return true
}

// name reads a peer name, channel id or attribute name (dots and dashes
// appear in DNS-style peer names).
func (p *parser) name() string {
	p.skipSpace()
	n := xpath.LexName(p.src[p.pos:])
	p.pos += n
	return p.src[p.pos-n : p.pos]
}

// word reads a bare identifier without dots (for attribute names after
// the dot notation, where the dot is the separator).
func (p *parser) word() string {
	start := p.pos
	for p.pos < len(p.src) && (wordChar(p.src[p.pos]) || p.src[p.pos] == '-') {
		p.pos++
	}
	return p.src[start:p.pos]
}

func (p *parser) stringLit() (string, error) {
	p.skipSpace()
	s, n, ok := xpath.LexString(p.src[p.pos:])
	if n == 0 {
		return "", p.errf("expected string literal")
	}
	p.pos += n
	if !ok {
		return "", p.errf("unterminated string literal")
	}
	return s, nil
}

func (p *parser) varName() (string, error) {
	p.skipSpace()
	if !p.consume("$") {
		return "", p.errf("expected variable (starting with '$')")
	}
	// Variable names are dot-free: the dot separates the attribute in the
	// sugar notation $c1.callMethod.
	start := p.pos
	for p.pos < len(p.src) && wordChar(p.src[p.pos]) {
		p.pos++
	}
	v := p.src[start:p.pos]
	if v == "" {
		return "", p.errf("expected variable name after '$'")
	}
	return v, nil
}

// --- subscription structure ---

func (p *parser) parseSubscription() (*Subscription, error) {
	sub := &Subscription{}
	if !p.keyword("for") {
		return nil, p.errf("subscription must start with FOR")
	}
	for {
		v, err := p.varName()
		if err != nil {
			return nil, err
		}
		if !p.keyword("in") {
			return nil, p.errf("expected IN after $%s", v)
		}
		src, err := p.parseSource()
		if err != nil {
			return nil, err
		}
		sub.For = append(sub.For, ForBinding{Var: v, Source: src})
		p.skipSpace()
		if !p.consume(",") {
			break
		}
	}
	// A second FOR keyword continues the bindings (the paper writes
	// "for $j in ... for $c in inCOM($j)").
	for p.keyword("for") {
		for {
			v, err := p.varName()
			if err != nil {
				return nil, err
			}
			if !p.keyword("in") {
				return nil, p.errf("expected IN after $%s", v)
			}
			src, err := p.parseSource()
			if err != nil {
				return nil, err
			}
			sub.For = append(sub.For, ForBinding{Var: v, Source: src})
			p.skipSpace()
			if !p.consume(",") {
				break
			}
		}
	}
	for p.keyword("let") {
		for {
			v, err := p.varName()
			if err != nil {
				return nil, err
			}
			p.skipSpace()
			if !p.consume(":=") {
				return nil, p.errf("expected ':=' after let $%s", v)
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sub.Let = append(sub.Let, LetBinding{Var: v, Expr: e})
			p.skipSpace()
			if !p.consume(",") {
				break
			}
		}
	}
	if p.keyword("where") {
		for {
			c, err := p.parseCondition()
			if err != nil {
				return nil, err
			}
			sub.Where = append(sub.Where, c)
			if !p.keyword("and") {
				break
			}
		}
	}
	if p.keyword("return") {
		r, err := p.parseReturn()
		if err != nil {
			return nil, err
		}
		sub.Return = r
	} else {
		return nil, p.errf("expected RETURN clause")
	}
	if p.keyword("group") {
		fn, valueAttr := "", ""
		if !p.keyword("on") {
			p.skipSpace()
			fn = p.word()
			m, ok := monoid.Lookup(fn)
			if fn == "" || !ok {
				return nil, p.errf("unknown aggregate function %q (have %s)", fn, strings.Join(monoid.Names(), ", "))
			}
			if m.NeedsValue() {
				if !p.keyword("of") {
					return nil, p.errf(`expected "of" after aggregate %q`, fn)
				}
				var err error
				if valueAttr, err = p.stringLit(); err != nil {
					return nil, err
				}
			}
			if fn == "count" {
				fn = "" // canonical spelling of the default
			}
			if !p.keyword("on") {
				return nil, p.errf(`expected "on" in group clause`)
			}
		}
		attr, err := p.stringLit()
		if err != nil {
			return nil, err
		}
		if !p.keyword("window") {
			return nil, p.errf(`expected "window" in group clause`)
		}
		window, err := p.stringLit()
		if err != nil {
			return nil, err
		}
		sub.Group = &GroupClause{Attr: attr, Window: window, Fn: fn, ValueAttr: valueAttr}
	}
	if p.keyword("by") {
		for {
			t, err := p.parseByTarget()
			if err != nil {
				return nil, err
			}
			sub.By = append(sub.By, *t)
			if !p.keyword("and") {
				break
			}
		}
	}
	return sub, nil
}

func (p *parser) parseSource() (Source, error) {
	p.skipSpace()
	if p.consume("(") {
		inner, err := p.parseSubscription()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if !p.consume(")") {
			return nil, p.errf("expected ')' closing nested subscription")
		}
		return &NestedSource{Sub: inner}, nil
	}
	fn := p.name()
	if fn == "" {
		return nil, p.errf("expected stream source (alerter call or nested subscription)")
	}
	p.skipSpace()
	if !p.consume("(") {
		return nil, p.errf("expected '(' after source function %q", fn)
	}
	if strings.EqualFold(fn, "channel") {
		ref, err := p.stringLit()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if !p.consume(")") {
			return nil, p.errf("expected ')' after channel reference")
		}
		return &ChannelSource{Ref: ref}, nil
	}
	src := &AlerterSource{Func: fn}
	for {
		p.skipSpace()
		switch {
		case p.consume(")"):
			return src, nil
		case p.peek() == '<':
			frag, err := p.scanXML()
			if err != nil {
				return nil, err
			}
			node, err := xmltree.Parse(frag)
			if err != nil {
				return nil, p.errf("bad XML argument: %v", err)
			}
			if node.Label == "p" {
				src.Peers = append(src.Peers, stripScheme(node.InnerText()))
			} else {
				src.Args = append(src.Args, node)
			}
		case p.peek() == '$':
			v, err := p.varName()
			if err != nil {
				return nil, err
			}
			if src.StreamVar != "" {
				return nil, p.errf("source %s: only one stream argument allowed", fn)
			}
			src.StreamVar = v
		case p.consume(","):
			// Argument separator; XML args may also be juxtaposed.
		default:
			return nil, p.errf("unexpected character %q in arguments of %s", string(p.peek()), fn)
		}
	}
}

// stripScheme drops spaces and an http(s):// scheme with one trailing
// slash, until none is left, so a peer name parses back to itself.
func stripScheme(s string) string {
	s = strings.TrimSpace(s)
	for _, scheme := range []string{"http://", "https://"} {
		if strings.HasPrefix(s, scheme) {
			return stripScheme(strings.TrimSuffix(s[len(scheme):], "/"))
		}
	}
	return s
}

// --- expressions ---

func (p *parser) parseExpr() (Expr, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		p.skipSpace()
		switch {
		case p.consume("+"):
			right, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			left = &Binary{Op: '+', L: left, R: right}
		case p.peek() == '-' && !p.startsArrow():
			p.pos++
			right, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			left = &Binary{Op: '-', L: left, R: right}
		default:
			return left, nil
		}
	}
}

// startsArrow guards against eating "->" style tokens; P2PML has none
// today, but the check keeps the lexer honest if operators grow.
func (p *parser) startsArrow() bool {
	return strings.HasPrefix(p.src[p.pos:], "->")
}

func (p *parser) parseTerm() (Expr, error) {
	left, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for {
		p.skipSpace()
		switch {
		case p.consume("*"):
			right, err := p.parseFactor()
			if err != nil {
				return nil, err
			}
			left = &Binary{Op: '*', L: left, R: right}
		case p.peek() == '/' && !strings.HasPrefix(p.src[p.pos:], "//"):
			// A '/' directly after a factor would be ambiguous with path
			// syntax; paths only follow variables and are handled in
			// parseFactor, so this is arithmetic division.
			p.pos++
			right, err := p.parseFactor()
			if err != nil {
				return nil, err
			}
			left = &Binary{Op: '/', L: left, R: right}
		default:
			return left, nil
		}
	}
}

func (p *parser) parseFactor() (Expr, error) {
	p.skipSpace()
	switch b := p.peek(); {
	case b == '(':
		p.pos++
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if !p.consume(")") {
			return nil, p.errf("expected ')'")
		}
		return e, nil
	case b == '"' || b == '\'':
		s, err := p.stringLit()
		if err != nil {
			return nil, err
		}
		return &Lit{Val: Value{Str: s}}, nil
	case b == '$':
		return p.parseVarExpr()
	case b >= '0' && b <= '9' || b == '-':
		start := p.pos
		n, size, ok := xpath.LexNumber(p.src[p.pos:])
		p.pos += size
		if !ok {
			return nil, p.errf("bad number %q", p.src[start:p.pos])
		}
		return &Lit{Val: Value{Str: xpath.FormatNumber(n), Num: n, IsNum: true}}, nil
	}
	return nil, p.errf("expected expression")
}

func (p *parser) parseVarExpr() (Expr, error) {
	v, err := p.varName()
	if err != nil {
		return nil, err
	}
	switch {
	case p.peek() == '.':
		p.pos++
		attr := p.word()
		if attr == "" {
			return nil, p.errf("expected attribute name after $%s.", v)
		}
		return &AttrRef{Var: v, Attr: attr}, nil
	case p.peek() == '/':
		path, n, err := xpath.CompilePrefix(p.src[p.pos:])
		if err != nil {
			return nil, p.errf("bad path after $%s: %v", v, err)
		}
		p.pos += n
		return &PathRef{Var: v, Path: path}, nil
	}
	return &VarRef{Var: v}, nil
}

func (p *parser) parseCondition() (Condition, error) {
	left, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if op, n, ok := xpath.LexOp(p.src[p.pos:]); ok {
		p.pos += n
		right, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &CmpCond{Left: left, Op: op, Right: right}, nil
	}
	// No comparison: must be an existence tree pattern on a variable.
	if pr, ok := left.(*PathRef); ok {
		return &PathCond{Var: pr.Var, Path: pr.Path}, nil
	}
	return nil, p.errf("condition %q needs a comparison operator", left.String())
}

func (p *parser) parseReturn() (*ReturnClause, error) {
	r := &ReturnClause{}
	if p.keyword("distinct") {
		r.Distinct = true
	}
	p.skipSpace()
	if p.peek() == '<' {
		frag, err := p.scanXML()
		if err != nil {
			return nil, err
		}
		tpl, err := CompileTemplate(frag)
		if err != nil {
			return nil, err
		}
		r.Template = tpl
		return r, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	r.Expr = e
	return r, nil
}

func (p *parser) parseByTarget() (*ByTarget, error) {
	switch {
	case p.keyword("publish"):
		if !p.keyword("as") || !p.keyword("channel") {
			return nil, p.errf(`expected "publish as channel"`)
		}
		name, err := p.stringLit()
		if err != nil {
			return nil, err
		}
		return &ByTarget{Kind: ByPublishChannel, Name: name}, nil
	case p.keyword("channel"):
		name := p.name()
		if name == "" {
			return nil, p.errf("expected channel name")
		}
		return &ByTarget{Kind: ByChannel, Name: name}, nil
	case p.keyword("subscribe"):
		p.skipSpace()
		if !p.consume("(") {
			return nil, p.errf("expected '(' after subscribe")
		}
		peer := p.name()
		p.skipSpace()
		if peer == "" || !p.consume(",") {
			return nil, p.errf("expected subscriber peer name")
		}
		p.skipSpace()
		if !p.consume("#") {
			return nil, p.errf("expected '#channelId'")
		}
		id := p.name()
		p.skipSpace()
		if id == "" || !p.consume(",") {
			return nil, p.errf("expected channel id")
		}
		name := p.name()
		p.skipSpace()
		if name == "" || !p.consume(")") {
			return nil, p.errf("expected channel name and ')'")
		}
		return &ByTarget{Kind: BySubscribe, Peer: peer, ChannelID: id, Name: name}, nil
	case p.keyword("email"):
		addr, err := p.stringLit()
		if err != nil {
			return nil, err
		}
		return &ByTarget{Kind: ByEmail, Name: addr}, nil
	case p.keyword("file"):
		name, err := p.stringLit()
		if err != nil {
			return nil, err
		}
		return &ByTarget{Kind: ByFile, Name: name}, nil
	case p.keyword("rss"):
		name, err := p.stringLit()
		if err != nil {
			return nil, err
		}
		return &ByTarget{Kind: ByRSS, Name: name}, nil
	}
	return nil, p.errf("expected BY target (publish as channel / channel / subscribe / email / file / rss)")
}

// scanXML extracts one balanced XML element starting at the current
// position, without interpreting it (template braces stay intact).
func (p *parser) scanXML() (string, error) {
	start := p.pos
	depth := 0
	for {
		if p.pos >= len(p.src) {
			return "", p.errf("unterminated XML fragment starting at %q", snippet(p.src[start:]))
		}
		if p.src[p.pos] != '<' {
			p.pos++
			continue
		}
		switch {
		case strings.HasPrefix(p.src[p.pos:], "<!--"):
			i := strings.Index(p.src[p.pos:], "-->")
			if i < 0 {
				return "", p.errf("unterminated comment in XML fragment")
			}
			p.pos += i + 3
		case strings.HasPrefix(p.src[p.pos:], "</"):
			i := strings.IndexByte(p.src[p.pos:], '>')
			if i < 0 {
				return "", p.errf("unterminated end tag")
			}
			p.pos += i + 1
			depth--
			if depth == 0 {
				return p.src[start:p.pos], nil
			}
		default:
			// Start tag: scan to '>' honoring quoted attribute values.
			i := p.pos + 1
			for i < len(p.src) && p.src[i] != '>' {
				_, n, _ := xpath.LexString(p.src[i:])
				i += max(n, 1)
			}
			if i >= len(p.src) {
				return "", p.errf("unterminated start tag")
			}
			selfClosing := p.src[i-1] == '/'
			p.pos = i + 1
			if !selfClosing {
				depth++
			} else if depth == 0 {
				return p.src[start:p.pos], nil
			}
		}
	}
}
