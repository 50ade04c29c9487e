// Package lexer turns Mini source text into a token stream.
package lexer

import (
	"vrp/internal/source"
	"vrp/internal/token"
)

// Lexer scans a source file. Errors are accumulated on the supplied
// ErrorList; scanning continues after an error so the parser can report as
// many problems as possible in one pass.
type Lexer struct {
	file *source.File
	errs *source.ErrorList

	src    string
	offset int // current read offset
}

// New returns a lexer over file, reporting errors to errs.
func New(file *source.File, errs *source.ErrorList) *Lexer {
	return &Lexer{file: file, errs: errs, src: file.Src}
}

func (l *Lexer) errorf(offset int, format string, args ...any) {
	l.errs.Add(l.file.Name, l.file.PosFor(offset), format, args...)
}

func (l *Lexer) peek() byte {
	if l.offset < len(l.src) {
		return l.src[l.offset]
	}
	return 0
}

func (l *Lexer) peekAt(n int) byte {
	if l.offset+n < len(l.src) {
		return l.src[l.offset+n]
	}
	return 0
}

func isLetter(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func (l *Lexer) skipSpaceAndComments() {
	for l.offset < len(l.src) {
		c := l.src[l.offset]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.offset++
		case c == '/' && l.peekAt(1) == '/':
			for l.offset < len(l.src) && l.src[l.offset] != '\n' {
				l.offset++
			}
		case c == '/' && l.peekAt(1) == '*':
			start := l.offset
			l.offset += 2
			closed := false
			for l.offset < len(l.src) {
				if l.src[l.offset] == '*' && l.peekAt(1) == '/' {
					l.offset += 2
					closed = true
					break
				}
				l.offset++
			}
			if !closed {
				l.errorf(start, "unterminated block comment")
			}
		default:
			return
		}
	}
}

// Next returns the next token. At end of input it returns EOF forever.
func (l *Lexer) Next() token.Token {
	l.skipSpaceAndComments()
	start := l.offset
	if l.offset >= len(l.src) {
		return token.Token{Kind: token.EOF, Offset: start}
	}
	c := l.src[l.offset]

	switch {
	case isLetter(c):
		for l.offset < len(l.src) && (isLetter(l.src[l.offset]) || isDigit(l.src[l.offset])) {
			l.offset++
		}
		lit := l.src[start:l.offset]
		return token.Token{Kind: token.Lookup(lit), Lit: lit, Offset: start}

	case isDigit(c):
		for l.offset < len(l.src) && isDigit(l.src[l.offset]) {
			l.offset++
		}
		if l.offset < len(l.src) && isLetter(l.src[l.offset]) {
			bad := l.offset
			for l.offset < len(l.src) && (isLetter(l.src[l.offset]) || isDigit(l.src[l.offset])) {
				l.offset++
			}
			l.errorf(bad, "identifier immediately follows number literal")
		}
		return token.Token{Kind: token.Int, Lit: l.src[start:l.offset], Offset: start}
	}

	// Operator or delimiter.
	two := func(k token.Kind) token.Token {
		l.offset += 2
		return token.Token{Kind: k, Offset: start}
	}
	one := func(k token.Kind) token.Token {
		l.offset++
		return token.Token{Kind: k, Offset: start}
	}

	switch c {
	case '+':
		switch l.peekAt(1) {
		case '+':
			return two(token.Inc)
		case '=':
			return two(token.PlusAssign)
		}
		return one(token.Plus)
	case '-':
		switch l.peekAt(1) {
		case '-':
			return two(token.Dec)
		case '=':
			return two(token.MinusAssign)
		}
		return one(token.Minus)
	case '*':
		if l.peekAt(1) == '=' {
			return two(token.StarAssign)
		}
		return one(token.Star)
	case '/':
		if l.peekAt(1) == '=' {
			return two(token.SlashAssign)
		}
		return one(token.Slash)
	case '%':
		if l.peekAt(1) == '=' {
			return two(token.PercentAssign)
		}
		return one(token.Percent)
	case '=':
		if l.peekAt(1) == '=' {
			return two(token.Eq)
		}
		return one(token.Assign)
	case '!':
		if l.peekAt(1) == '=' {
			return two(token.Neq)
		}
		return one(token.Not)
	case '<':
		if l.peekAt(1) == '=' {
			return two(token.Leq)
		}
		return one(token.Lt)
	case '>':
		if l.peekAt(1) == '=' {
			return two(token.Geq)
		}
		return one(token.Gt)
	case '&':
		if l.peekAt(1) == '&' {
			return two(token.AndAnd)
		}
	case '|':
		if l.peekAt(1) == '|' {
			return two(token.OrOr)
		}
	case '(':
		return one(token.LParen)
	case ')':
		return one(token.RParen)
	case '{':
		return one(token.LBrace)
	case '}':
		return one(token.RBrace)
	case '[':
		return one(token.LBracket)
	case ']':
		return one(token.RBracket)
	case ',':
		return one(token.Comma)
	case ';':
		return one(token.Semi)
	}

	l.errorf(start, "illegal character %q", string(c))
	l.offset++
	return token.Token{Kind: token.Illegal, Lit: string(c), Offset: start}
}
