package xpath

import (
	"fmt"
	"strings"
)

// Compile parses a tree-pattern query. A leading "$var" prefix (as in the
// paper's "$c1/alert[...]") is rejected here; callers strip variables and
// pass the path part (see p2pml).
func Compile(src string) (*Path, error) {
	c := &compiler{src: src}
	p, err := c.parsePath(true)
	if err != nil {
		return nil, err
	}
	c.skipSpace()
	if c.pos != len(c.src) {
		return nil, c.errf("trailing input %q", c.src[c.pos:])
	}
	p.src = src
	return p, nil
}

// MustCompile is Compile that panics on error; for fixtures and tests.
func MustCompile(src string) *Path {
	p, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return p
}

// CompilePrefix parses a path starting at the beginning of src and stops
// at the first character that cannot continue it, returning the number of
// bytes consumed. The P2PML parser uses it for embedded paths such as
// "$c1/alert[@callMethod = \"x\"] and ..." where the path ends mid-string.
func CompilePrefix(src string) (*Path, int, error) {
	c := &compiler{src: src}
	p, err := c.parsePath(true)
	if err != nil {
		return nil, 0, err
	}
	p.src = src[:c.pos]
	return p, c.pos, nil
}

type compiler struct {
	src string
	pos int
}

func (c *compiler) errf(format string, args ...any) error {
	return fmt.Errorf("xpath: %s (at offset %d in %q)", fmt.Sprintf(format, args...), c.pos, c.src)
}

func (c *compiler) skipSpace() {
	for c.pos < len(c.src) && (c.src[c.pos] == ' ' || c.src[c.pos] == '\t') {
		c.pos++
	}
}

func (c *compiler) peek() byte {
	if c.pos < len(c.src) {
		return c.src[c.pos]
	}
	return 0
}

func (c *compiler) consume(s string) bool {
	if strings.HasPrefix(c.src[c.pos:], s) {
		c.pos += len(s)
		return true
	}
	return false
}

func (c *compiler) readIdent() string {
	n := LexName(c.src[c.pos:])
	c.pos += n
	return c.src[c.pos-n : c.pos]
}

// parsePath parses a path; topLevel controls the error message only.
func (c *compiler) parsePath(topLevel bool) (*Path, error) {
	p := &Path{}
	c.skipSpace()
	first := true
	for {
		axis := Child
		switch {
		case c.consume("//"):
			axis = Descendant
			if first {
				p.Rooted = true
			}
		case c.consume("/"):
			if first {
				p.Rooted = true
			}
		default:
			if !first {
				return p, nil // end of path
			}
			// relative path with implicit child axis
		}
		step, err := c.parseStep(axis)
		if err != nil {
			return nil, err
		}
		p.Steps = append(p.Steps, step)
		if step.Kind != ElementKind {
			// @attr and text() are terminal.
			return p, nil
		}
		first = false
		if c.peek() != '/' {
			return p, nil
		}
	}
}

func (c *compiler) parseStep(axis Axis) (Step, error) {
	s := Step{Axis: axis}
	switch {
	case c.consume("@"):
		s.Kind = AttrKind
		s.Label = c.readIdent()
		if s.Label == "" {
			return s, c.errf("expected attribute name after '@'")
		}
		return s, nil
	case c.consume("text()"):
		s.Kind = TextKind
		return s, nil
	case c.consume("*"):
		s.Kind = ElementKind
		s.Label = "*"
	default:
		s.Kind = ElementKind
		s.Label = c.readIdent()
		if s.Label == "" {
			return s, c.errf("expected step")
		}
	}
	for c.peek() == '[' {
		pred, err := c.parsePred()
		if err != nil {
			return s, err
		}
		s.Preds = append(s.Preds, pred)
	}
	return s, nil
}

func (c *compiler) parsePred() (Pred, error) {
	var pr Pred
	if !c.consume("[") {
		return pr, c.errf("expected '['")
	}
	c.skipSpace()
	inner, err := c.parsePath(false)
	if err != nil {
		return pr, err
	}
	if len(inner.Steps) == 0 {
		return pr, c.errf("empty predicate")
	}
	if inner.Rooted {
		return pr, c.errf("predicates must use relative paths")
	}
	pr.Path = inner
	c.skipSpace()
	if c.peek() == ']' {
		c.pos++
		pr.Op = OpExists
		return pr, nil
	}
	op, n, ok := LexOp(c.src[c.pos:])
	if !ok {
		return pr, c.errf("expected comparison operator")
	}
	c.pos += n
	pr.Op = op
	c.skipSpace()
	val, err := c.parseValue()
	if err != nil {
		return pr, err
	}
	pr.Value = val
	c.skipSpace()
	if !c.consume("]") {
		return pr, c.errf("expected ']'")
	}
	return pr, nil
}

func (c *compiler) parseValue() (Value, error) {
	c.skipSpace()
	switch b := c.peek(); {
	case b == '$':
		c.pos++
		name := c.readIdent()
		if name == "" {
			return Value{}, c.errf("expected variable name after '$'")
		}
		return Value{Var: name}, nil
	case b == '"' || b == '\'':
		lit, n, ok := LexString(c.src[c.pos:])
		c.pos += n
		if !ok {
			return Value{}, c.errf("unterminated string literal")
		}
		return Value{Literal: lit}, nil
	case b == '-' || (b >= '0' && b <= '9'):
		start := c.pos
		num, n, ok := LexNumber(c.src[c.pos:])
		c.pos += n
		if !ok {
			return Value{}, c.errf("bad number %q", c.src[start:c.pos])
		}
		return Value{Num: num, IsNum: true, Literal: FormatNumber(num)}, nil
	}
	return Value{}, c.errf("expected value")
}
