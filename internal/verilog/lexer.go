// Package verilog implements a lexer, parser and AST for the
// synthesizable Verilog subset consumed by the assertion-checking
// framework. The paper used a commercial HDL front end (§2, §5); this
// package is the from-scratch substitute. The subset covers module
// declarations with port directions and ranges, wire/reg/parameter
// declarations (including small memory arrays), continuous assigns,
// always blocks (combinational and edge-triggered with the async-reset
// idiom), if/else, case, begin/end, blocking and non-blocking
// assignments, module instantiation with named port connections, and
// the usual expression operators with sized literals.
package verilog

import (
	"fmt"
	"strings"
)

// TokKind classifies tokens.
type TokKind uint8

// Token kinds.
const (
	TEOF TokKind = iota
	TIdent
	TNumber // 4'b10xx, 15, 8'hff ...
	TString
	TPunct // operators and punctuation, in Text
	TKeyword
)

// Token is one lexical token with its source position.
type Token struct {
	Kind TokKind
	Text string
	Line int
}

var keywords = map[string]bool{
	"module": true, "endmodule": true, "input": true, "output": true,
	"inout": true, "wire": true, "reg": true, "assign": true,
	"always": true, "posedge": true, "negedge": true, "or": true,
	"if": true, "else": true, "case": true, "casez": true, "endcase": true,
	"default": true, "begin": true, "end": true, "parameter": true,
	"localparam": true, "initial": true, "integer": true, "function": true,
	"endfunction": true, "for": true, "generate": true, "endgenerate": true,
	"genvar": true,
}

// Lexer turns Verilog source text into tokens.
type Lexer struct {
	src  string
	pos  int
	line int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1}
}

func (l *Lexer) errf(format string, args ...interface{}) error {
	return fmt.Errorf("line %d: %s", l.line, fmt.Sprintf(format, args...))
}

func (l *Lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) at(off int) byte {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

func (l *Lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
	}
	return c
}

func (l *Lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		c := l.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.at(1) == '/':
			for l.pos < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		case c == '/' && l.at(1) == '*':
			l.advance()
			l.advance()
			for {
				if l.pos >= len(l.src) {
					return l.errf("unterminated block comment")
				}
				if l.peekByte() == '*' && l.at(1) == '/' {
					l.advance()
					l.advance()
					break
				}
				l.advance()
			}
		case c == '`':
			// Compiler directives (`timescale, `define usage...) — skip
			// to end of line; our subset does not use macros.
			for l.pos < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || c == '$' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentChar(c byte) bool { return isIdentStart(c) || c >= '0' && c <= '9' }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// multi-character operators, longest first.
var multiOps = []string{
	"<<<", ">>>", "===", "!==",
	"<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "**",
}

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	if l.pos >= len(l.src) {
		return Token{Kind: TEOF, Line: l.line}, nil
	}
	line := l.line
	c := l.peekByte()
	switch {
	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && isIdentChar(l.peekByte()) {
			l.advance()
		}
		text := l.src[start:l.pos]
		kind := TIdent
		if keywords[text] {
			kind = TKeyword
		}
		return Token{Kind: kind, Text: text, Line: line}, nil
	case isDigit(c) || c == '\'':
		return l.lexNumber(line)
	case c == '"':
		l.advance()
		start := l.pos
		for l.pos < len(l.src) && l.peekByte() != '"' {
			l.advance()
		}
		if l.pos >= len(l.src) {
			return Token{}, l.errf("unterminated string")
		}
		text := l.src[start:l.pos]
		l.advance()
		return Token{Kind: TString, Text: text, Line: line}, nil
	default:
		for _, op := range multiOps {
			if strings.HasPrefix(l.src[l.pos:], op) {
				for range op {
					l.advance()
				}
				return Token{Kind: TPunct, Text: op, Line: line}, nil
			}
		}
		l.advance()
		return Token{Kind: TPunct, Text: string(c), Line: line}, nil
	}
}

// lexNumber scans decimal literals and sized/based literals. A based
// literal may follow a size that was already consumed as part of this
// token ("4'b1010") or start directly with the tick ("'b1010").
func (l *Lexer) lexNumber(line int) (Token, error) {
	start := l.pos
	for l.pos < len(l.src) && (isDigit(l.peekByte()) || l.peekByte() == '_') {
		l.advance()
	}
	if l.pos < len(l.src) && l.peekByte() == '\'' {
		l.advance() // tick
		if l.pos >= len(l.src) {
			return Token{}, l.errf("truncated based literal")
		}
		b := l.peekByte()
		switch b {
		case 'b', 'B', 'h', 'H', 'd', 'D', 'o', 'O':
			l.advance()
		default:
			return Token{}, l.errf("bad base %q in literal", b)
		}
		for l.pos < len(l.src) {
			c := l.peekByte()
			if isIdentChar(c) || c == '?' {
				l.advance()
			} else {
				break
			}
		}
	}
	return Token{Kind: TNumber, Text: l.src[start:l.pos], Line: line}, nil
}
