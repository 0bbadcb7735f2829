// Package xmlscan is the pull scanner under CN's two XML readers, cnx.Parse
// and xmi.Parse. It reports start tags with their attributes, end tags and
// character data, and nothing else: comments, processing instructions and
// directives are checked and skipped. Names are reported by their local part
// (the part after a namespace prefix), which is how both readers match them.
//
// The scanner enforces what encoding/xml's strict decoder enforces, so a
// document is accepted here exactly when it was accepted there: end tags must
// match their start tags (prefix included), attribute values must be quoted
// and may not contain '<', the only entities are lt, gt, amp, apos, quot and
// numeric references to characters XML allows, "]]>" may not appear in
// character data, text must be valid UTF-8, and an <?xml?> declaration naming
// a version other than 1.0 or an encoding other than UTF-8 is refused. Line
// endings in text and attribute values are normalized to '\n'. Like
// encoding/xml it does not insist on a single root element, and the readers
// match duplicate attributes and unknown prefixes the way they always did.
// The differential fuzz targets in cnx and xmi hold it to that.
//
// One divergence, toward refusal: an element, attribute or
// processing-instruction name with a non-ASCII character fails with
// ErrNonASCIIName, where encoding/xml consults XML 1.0's letter tables. No
// writer in this repository and no tool export the paper shows produces such
// a name (attribute values and text are unrestricted).
//
// Every byte slice a Scanner hands out points into the input or into a
// buffer the next call to Next reuses; a reader that keeps a value converts
// it to a string, which copies it. Every error carries the input line.
package xmlscan

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Kind is the type of token Next found.
type Kind uint8

// Token kinds.
const (
	Start Kind = iota + 1 // start tag; <a/> reports Start, then End
	End                   // end tag
	Text                  // character data or one CDATA section, entities expanded
)

// Attr is one attribute of a start tag: the local part of its name and its
// unescaped value.
type Attr struct {
	Name, Value []byte
}

// ErrNonASCIIName is wrapped by the error for a name the scanner refuses
// only because it has a non-ASCII character.
var ErrNonASCIIName = errors.New("name with a non-ASCII character is not supported")

var errEOF = errors.New("unexpected EOF")

// Error is a syntax error at a line of the input.
type Error struct {
	Line int
	Err  error
}

func (e *Error) Error() string { return "line " + strconv.Itoa(e.Line) + ": " + e.Err.Error() }

func (e *Error) Unwrap() error { return e.Err }

// span is a name in the input: src[start:end], its local part src[local:end].
type span struct{ start, local, end int }

// Scanner reads one document held in memory.
type Scanner struct {
	src  []byte
	pos  int
	open []span // names of the elements not yet closed
	// closeNext: the Start just reported was self-closing; its End is next.
	closeNext bool

	kind  Kind
	name  span
	attrs []Attr
	text  []byte
	buf   []byte // unescaped values of the current token
}

// New returns a scanner over src, which must not change while it is read.
func New(src []byte) *Scanner { return &Scanner{src: src} }

// Name is the local name of the current Start or End token.
func (s *Scanner) Name() []byte { return s.src[s.name.local:s.name.end] }

// Parent is the local name of the element enclosing the current Start or End
// token, nil at the top level.
func (s *Scanner) Parent() []byte {
	n := len(s.open)
	if s.kind == Start {
		n-- // its own entry
	}
	if n <= 0 {
		return nil
	}
	return s.src[s.open[n-1].local:s.open[n-1].end]
}

// Attrs are the current Start token's attributes in document order.
func (s *Scanner) Attrs() []Attr { return s.attrs }

// Attr is the value of the first attribute of the current Start token whose
// local name is local, nil when there is none.
func (s *Scanner) Attr(local string) []byte {
	for i := range s.attrs {
		if string(s.attrs[i].Name) == local {
			return s.attrs[i].Value
		}
	}
	return nil
}

// Text is the current Text token's character data.
func (s *Scanner) Text() []byte { return s.text }

// Next advances to the next token. At the end of a document whose elements
// are all closed it returns io.EOF.
func (s *Scanner) Next() (Kind, error) {
	kind, err := s.next()
	s.kind = kind
	return kind, err
}

// Skip reads through the end tag matching the current Start token.
func (s *Scanner) Skip() error {
	depth := len(s.open)
	for {
		kind, err := s.next()
		if err != nil {
			return err
		}
		if kind == End && len(s.open) < depth {
			s.kind = End
			return nil
		}
	}
}

func (s *Scanner) errorf(format string, args ...any) error {
	at := min(s.pos, len(s.src))
	return &Error{Line: 1 + bytes.Count(s.src[:at], []byte{'\n'}), Err: fmt.Errorf(format, args...)}
}

func (s *Scanner) eof() error {
	s.pos = len(s.src)
	return s.errorf("%w", errEOF)
}

func (s *Scanner) next() (Kind, error) {
	if s.closeNext {
		s.closeNext = false
		s.open = s.open[:len(s.open)-1]
		return End, nil
	}
	s.buf = s.buf[:0]
	for {
		if s.pos >= len(s.src) {
			if len(s.open) > 0 {
				return 0, s.eof()
			}
			return 0, io.EOF
		}
		if s.src[s.pos] != '<' {
			return s.scanText(0, false)
		}
		rest := s.src[s.pos+1:]
		if len(rest) == 0 {
			return 0, s.eof()
		}
		var err error
		switch rest[0] {
		case '/':
			return s.scanEnd()
		case '?':
			err = s.skipProcInst()
		case '!':
			switch {
			case len(rest) < 2:
				err = s.eof()
			case rest[1] == '-':
				err = s.skipComment()
			case rest[1] == '[':
				if !bytes.HasPrefix(rest[2:], []byte("CDATA[")) {
					return 0, s.errorf("invalid <![ sequence")
				}
				s.pos += len("<![CDATA[")
				return s.scanText(0, true)
			default:
				err = s.skipDirective()
			}
		default:
			return s.scanStart()
		}
		if err != nil {
			return 0, err
		}
	}
}

func isNameByte(c byte) bool {
	return 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || '0' <= c && c <= '9' ||
		c == '_' || c == ':' || c == '.' || c == '-'
}

// scanName reads a name at pos: a letter, '_' or ':' followed by name bytes,
// with at most one ':' (a prefix and a local part when both are non-empty).
func (s *Scanner) scanName(what string) (span, error) {
	start, colon, colons := s.pos, -1, 0
	i := start
	for ; i < len(s.src); i++ {
		c := s.src[i]
		if c >= utf8.RuneSelf {
			s.pos = i
			return span{}, s.errorf("%s: %w", what, ErrNonASCIIName)
		}
		if !isNameByte(c) {
			break
		}
		if c == ':' {
			colon = i
			colons++
		}
	}
	if i == len(s.src) {
		return span{}, s.eof()
	}
	if i == start {
		return span{}, s.errorf("expected %s", what)
	}
	if c := s.src[start]; '0' <= c && c <= '9' || c == '.' || c == '-' {
		return span{}, s.errorf("invalid XML name: %s", s.src[start:i])
	}
	if colons > 1 {
		return span{}, s.errorf("expected %s, found %s", what, s.src[start:i])
	}
	n := span{start: start, local: start, end: i}
	if colons == 1 && colon > start && colon < i-1 {
		n.local = colon + 1
	}
	s.pos = i
	return n, nil
}

func (s *Scanner) skipSpace() {
	for s.pos < len(s.src) {
		switch s.src[s.pos] {
		case ' ', '\r', '\n', '\t':
			s.pos++
		default:
			return
		}
	}
}

// peek is the byte at pos; the input ending here is an error.
func (s *Scanner) peek() (byte, error) {
	if s.pos >= len(s.src) {
		return 0, s.eof()
	}
	return s.src[s.pos], nil
}

func (s *Scanner) scanStart() (Kind, error) {
	s.pos++ // <
	name, err := s.scanName("element name after <")
	if err != nil {
		return 0, err
	}
	s.attrs = s.attrs[:0]
	for {
		s.skipSpace()
		c, err := s.peek()
		if err != nil {
			return 0, err
		}
		if c == '>' {
			s.pos++
			break
		}
		if c == '/' {
			s.pos++
			if c, err = s.peek(); err != nil {
				return 0, err
			}
			if c != '>' {
				return 0, s.errorf("expected /> in element")
			}
			s.pos++
			s.closeNext = true
			break
		}
		an, err := s.scanName("attribute name in element")
		if err != nil {
			return 0, err
		}
		s.skipSpace()
		if c, err = s.peek(); err != nil {
			return 0, err
		}
		if c != '=' {
			return 0, s.errorf("attribute name without = in element")
		}
		s.pos++
		s.skipSpace()
		if c, err = s.peek(); err != nil {
			return 0, err
		}
		if c != '"' && c != '\'' {
			return 0, s.errorf("unquoted or missing attribute value in element")
		}
		s.pos++
		if _, err = s.scanText(c, false); err != nil {
			return 0, err
		}
		s.attrs = append(s.attrs, Attr{Name: s.src[an.local:an.end], Value: s.text})
	}
	s.name = name
	s.open = append(s.open, name)
	return Start, nil
}

func (s *Scanner) scanEnd() (Kind, error) {
	s.pos += 2 // </
	name, err := s.scanName("element name after </")
	if err != nil {
		return 0, err
	}
	s.skipSpace()
	c, err := s.peek()
	if err != nil {
		return 0, err
	}
	if c != '>' {
		return 0, s.errorf("invalid characters between </%s and >", s.src[name.start:name.end])
	}
	s.pos++
	closes := s.src[name.start:name.end]
	if len(s.open) == 0 {
		return 0, s.errorf("unexpected end element </%s>", closes)
	}
	top := s.open[len(s.open)-1]
	if !bytes.Equal(s.src[top.start:top.end], closes) {
		return 0, s.errorf("element <%s> closed by </%s>", s.src[top.start:top.end], closes)
	}
	s.open = s.open[:len(s.open)-1]
	s.name = name
	return End, nil
}

// scanText reads character data (quote 0: up to the next '<' or the end of
// the input), a quoted attribute value (up to quote) or a CDATA section (up
// to "]]>") into s.text, expanding entities and normalizing line endings. A
// value that needs no rewriting is a slice of the input.
func (s *Scanner) scanText(quote byte, cdata bool) (Kind, error) {
	src := s.src
	i, start, mark := s.pos, s.pos, len(s.buf)
	copied := start // src[copied:i] is not yet in buf
	run := start    // "]]>" counts only within src[run:], which no entity interrupts
	end := -1
scan:
	for ; i < len(src); i++ {
		switch c := src[i]; {
		case c == '<' && !cdata:
			if quote != 0 {
				s.pos = i
				return 0, s.errorf("unescaped < inside quoted string")
			}
			end, s.pos = i, i
			break scan
		case c == quote && quote != 0:
			end, s.pos = i, i+1
			break scan
		case c == '>' && quote == 0 && i-run >= 2 && src[i-1] == ']' && src[i-2] == ']':
			if !cdata {
				s.pos = i
				return 0, s.errorf("unescaped ]]> not in CDATA section")
			}
			end, s.pos = i-2, i+1
			break scan
		case c == '&' && !cdata:
			s.buf = append(s.buf, src[copied:i]...)
			s.pos = i
			n, err := s.appendEntity()
			if err != nil {
				return 0, err
			}
			i += n - 1
			copied, run = i+1, i+1
		case c == '\r':
			s.buf = append(append(s.buf, src[copied:i]...), '\n')
			if i+1 < len(src) && src[i+1] == '\n' {
				i++
			}
			copied = i + 1
		}
	}
	if end < 0 {
		if quote != 0 || cdata {
			return 0, s.eof()
		}
		end, s.pos = len(src), len(src)
	}
	if copied == start {
		s.text = src[start:end]
	} else {
		s.buf = append(s.buf, src[copied:end]...)
		s.text = s.buf[mark:]
	}
	if err := s.checkChars(s.text); err != nil {
		return 0, err
	}
	return Text, nil
}

// appendEntity expands the reference at pos ('&') into buf and returns the
// length of its source text. The references are the five named entities and
// decimal or hexadecimal character numbers, each closed by ';'.
func (s *Scanner) appendEntity() (int, error) {
	src := s.src
	i := s.pos + 1
	r := rune(-1)
	if i < len(src) && src[i] == '#' {
		i++
		base := 10
		if i < len(src) && src[i] == 'x' {
			base = 16
			i++
		}
		digits := i
		for i < len(src) && ('0' <= src[i] && src[i] <= '9' ||
			base == 16 && ('a' <= src[i] && src[i] <= 'f' || 'A' <= src[i] && src[i] <= 'F')) {
			i++
		}
		if i < len(src) && src[i] == ';' {
			if n, err := strconv.ParseUint(string(src[digits:i]), base, 64); err == nil && n <= unicode.MaxRune {
				r = rune(n)
			}
		}
	} else {
		name := i
		for i < len(src) && (isNameByte(src[i]) || src[i] >= utf8.RuneSelf) {
			i++
		}
		if i < len(src) && src[i] == ';' {
			switch string(src[name:i]) {
			case "lt":
				r = '<'
			case "gt":
				r = '>'
			case "amp":
				r = '&'
			case "apos":
				r = '\''
			case "quot":
				r = '"'
			}
		}
	}
	if i >= len(src) {
		return 0, s.eof()
	}
	if r < 0 {
		return 0, s.errorf("invalid character entity %s", src[s.pos:i+1])
	}
	s.buf = utf8.AppendRune(s.buf, r)
	return i + 1 - s.pos, nil
}

// checkChars refuses invalid UTF-8 and the characters XML forbids.
func (s *Scanner) checkChars(data []byte) error {
	for i := 0; i < len(data); {
		c := data[i]
		if c < utf8.RuneSelf {
			if c < 0x20 && c != '\t' && c != '\n' && c != '\r' {
				return s.errorf("illegal character code %U", rune(c))
			}
			i++
			continue
		}
		r, size := utf8.DecodeRune(data[i:])
		if r == utf8.RuneError && size == 1 {
			return s.errorf("invalid UTF-8")
		}
		if r == 0xFFFE || r == 0xFFFF {
			return s.errorf("illegal character code %U", r)
		}
		i += size
	}
	return nil
}

// skipComment reads "<!--" through "-->"; "--" may not appear inside.
func (s *Scanner) skipComment() error {
	if !bytes.HasPrefix(s.src[s.pos:], []byte("<!--")) {
		return s.errorf("invalid sequence <!- not part of <!--")
	}
	s.pos += len("<!--")
	k := bytes.Index(s.src[s.pos:], []byte("--"))
	if k < 0 || s.pos+k+2 >= len(s.src) {
		return s.eof()
	}
	s.pos += k + 2
	if s.src[s.pos] != '>' {
		return s.errorf(`invalid sequence "--" not allowed in comments`)
	}
	s.pos++
	return nil
}

// skipProcInst reads "<?target ... ?>", and refuses an <?xml?> declaration
// of a version or an encoding this scanner does not read.
func (s *Scanner) skipProcInst() error {
	s.pos += 2 // <?
	target, err := s.scanName("target name after <?")
	if err != nil {
		return err
	}
	s.skipSpace()
	k := bytes.Index(s.src[s.pos:], []byte("?>"))
	if k < 0 {
		return s.eof()
	}
	content := s.src[s.pos : s.pos+k]
	s.pos += k + 2
	if string(s.src[target.start:target.end]) != "xml" {
		return nil
	}
	if ver := procInst("version", string(content)); ver != "" && ver != "1.0" {
		return s.errorf("unsupported version %q; only version 1.0 is supported", ver)
	}
	if enc := procInst("encoding", string(content)); enc != "" && !strings.EqualFold(enc, "utf-8") {
		return s.errorf("encoding %q declared but only UTF-8 is supported", enc)
	}
	return nil
}

// procInst is encoding/xml's reading of param="value" in an <?xml?>
// declaration, kept to the letter so the same declarations are refused.
func procInst(param, s string) string {
	param += "="
	i := 0
	var sep byte
	for i < len(s) {
		sub := s[i:]
		k := strings.Index(sub, param)
		if k < 0 || len(param)+k >= len(sub) {
			return ""
		}
		i += len(param) + k + 1
		if c := sub[len(param)+k]; c == '\'' || c == '"' {
			sep = c
			break
		}
	}
	if sep == 0 {
		return ""
	}
	j := strings.IndexByte(s[i:], sep)
	if j < 0 {
		return ""
	}
	return s[i : i+j]
}

// skipDirective reads "<!DOCTYPE ...>" and its kind: up to the '>' that
// closes it, where quoted strings, nested <...> (an internal subset) and
// comments do not count.
func (s *Scanner) skipDirective() error {
	src := s.src
	i := s.pos + 3 // "<!" and the directive's first byte, which is never special
	var inquote byte
	depth := 0
	for {
		if i >= len(src) {
			return s.eof()
		}
		b := src[i]
		i++
		if inquote == 0 && b == '>' && depth == 0 {
			s.pos = i
			return nil
		}
	handle:
		switch {
		case b == inquote:
			inquote = 0
		case inquote != 0:
		case b == '\'' || b == '"':
			inquote = b
		case b == '>':
			depth--
		case b == '<':
			for k := 0; k < len("!--"); k++ {
				if i >= len(src) {
					return s.eof()
				}
				b = src[i]
				i++
				if b != "!--"[k] {
					depth++
					goto handle
				}
			}
			k := bytes.Index(src[i:], []byte("-->"))
			if k < 0 {
				return s.eof()
			}
			i += k + len("-->")
		}
	}
}
