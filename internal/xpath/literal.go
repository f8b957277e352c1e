package xpath

import (
	"math"
	"strconv"
	"strings"
)

// The literal syntax of paths and subscriptions. Every number and string
// the monitor writes or reads as a literal, and every comparison operator
// it reads or writes, goes through these functions and cmpTokens.

// FormatNumber writes f as XPath 1.0's string() does
// (https://www.w3.org/TR/xpath-10/#function-string): an integer without
// a decimal point, any other number in plain decimal with as many digits
// as tell it from its neighbours, never an exponent; NaN, Infinity and
// -Infinity; and negative zero as 0.
func FormatNumber(f float64) string {
	switch { // AppendFloat writes NaN as XPath does
	case math.IsInf(f, 1):
		return "Infinity"
	case math.IsInf(f, -1):
		return "-Infinity"
	case f == 0:
		return "0"
	}
	var buf [32]byte // what FormatFloat takes, without its scratch allocation
	return string(strconv.AppendFloat(buf[:0], f, 'f', -1, 64))
}

// LexNumber reads the number literal at the start of s: an optional
// minus sign, then digits and points. It returns the number, the bytes
// read and whether they make one. FormatNumber's text for a finite
// number reads back whole.
func LexNumber(s string) (float64, int, bool) {
	n := 0
	if s != "" && s[0] == '-' {
		n++
	}
	for n < len(s) && (s[n] >= '0' && s[n] <= '9' || s[n] == '.') {
		n++
	}
	f, err := strconv.ParseFloat(s[:n], 64)
	return f, n, err == nil
}

// LexName returns the length of the name at the start of s: a letter or
// an underscore, then letters, digits, underscores, dashes, points and
// colons. Element and attribute names, and the peer names and channel ids
// of a subscription, are names.
func LexName(s string) int {
	n := 0
	for n < len(s) && nameChar(s[n], n == 0) {
		n++
	}
	return n
}

func nameChar(b byte, first bool) bool {
	switch {
	case b >= 'a' && b <= 'z', b >= 'A' && b <= 'Z', b == '_':
		return true
	case !first && (b >= '0' && b <= '9' || b == '-' || b == '.' || b == ':'):
		return true
	}
	return false
}

// LexString reads the string literal at the start of s: its content
// between single or double quotes, with no escapes. It returns the
// content and the bytes read; ok is false with nothing read when s does
// not start with a quote, and with all of s read when the closing quote
// is missing.
func LexString(s string) (lit string, n int, ok bool) {
	if s == "" || s[0] != '"' && s[0] != '\'' {
		return "", 0, false
	}
	end := strings.IndexByte(s[1:], s[0])
	if end < 0 {
		return "", len(s), false
	}
	return s[1 : 1+end], end + 2, true
}

// cmpTokens are the comparison operators, longest first, so that "<="
// is not read as "<".
var cmpTokens = [...]struct {
	tok string
	op  CmpOp
}{{"!=", OpNe}, {"<>", OpNe}, {"<=", OpLe}, {">=", OpGe}, {"=", OpEq}, {"<", OpLt}, {">", OpGt}}

// LexOp reads the comparison operator at the start of s. It returns the
// operator, the bytes read and whether s starts with one.
func LexOp(s string) (CmpOp, int, bool) {
	for _, c := range cmpTokens {
		if strings.HasPrefix(s, c.tok) {
			return c.op, len(c.tok), true
		}
	}
	return OpExists, 0, false
}

// Quote writes s as LexString reads it: as it is, between double quotes
// unless it holds one.
func Quote(s string) string {
	if strings.Contains(s, `"`) {
		return "'" + s + "'"
	}
	return `"` + s + `"`
}

// ParseNumber reports the numeric reading of s under the condition
// language: surrounding blanks trimmed, then anything strconv.ParseFloat
// accepts without error ("1e3", ".5", "+5", "Inf", "NaN"; not "0x10",
// not an out-of-range "1e999"). It is the one numeric detector of the
// system. It reads what monitored services write, so it is wider than
// LexNumber; the monitor itself writes only FormatNumber's text. Values
// that cannot be numbers — nearly every attribute a monitor sees — are
// rejected on their first byte, before ParseFloat would build an error
// for them.
func ParseNumber(s string) (float64, bool) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, false
	}
	switch c := s[0]; {
	case c >= '0' && c <= '9', c == '+', c == '-', c == '.':
	case c == 'i', c == 'I', c == 'n', c == 'N': // Inf, Infinity, NaN
	default:
		return 0, false
	}
	n, err := strconv.ParseFloat(s, 64)
	return n, err == nil
}
