package tml

import (
	"fmt"
	"strconv"
	"strings"
)

// This file implements a parser for the s-expression concrete syntax used
// by the pretty printer, tml opt and the test suite.
//
// Grammar (paper Fig. 1, concretised):
//
//	app   := '(' value value* ')'
//	value := INT | REAL | CHAR | STRING | 'true' | 'false' | 'ok'
//	       | '<oid' HEX '>' | abs | NAME
//	abs   := ('proc' | 'cont' | 'lambda' | 'λ') '(' param* ')' app
//	param := '!'? NAME          -- '!' marks a continuation variable
//
// Comments run from ';' to end of line. A NAME of the form base_N adopts N
// as the variable ID, so pretty-printed trees parse back to α-equivalent
// trees. Names bound by an enclosing parameter list resolve lexically to
// the binder; unbound names resolve to primitives when opts.IsPrim accepts
// them and to free variables otherwise.

// ParseOpts configures Parse.
type ParseOpts struct {
	// IsPrim reports whether a name denotes a primitive procedure.
	// The primitive registry is deliberately outside the intermediate
	// language (paper §2.3), so the parser is parameterised by it.
	IsPrim func(string) bool
	// Gen supplies IDs for variables written without an explicit _N
	// suffix. If nil, a private generator is used.
	Gen *VarGen
}

// Parse parses a single TML term (a value or an application).
func Parse(src string, opts ParseOpts) (Node, error) {
	p := newParser(src, opts)
	n, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	if tok := p.peek(); tok.kind != tokEOF {
		return nil, p.errorf(tok, "trailing input %q", tok.text)
	}
	return n, nil
}

// ParseApp parses a term that must be an application.
func ParseApp(src string, opts ParseOpts) (*App, error) {
	n, err := Parse(src, opts)
	if err != nil {
		return nil, err
	}
	app, ok := n.(*App)
	if !ok {
		return nil, fmt.Errorf("tml: term is a %T, not an application", n)
	}
	return app, nil
}

// MustParse is Parse for tests and examples; it panics on error.
func MustParse(src string, opts ParseOpts) Node {
	n, err := Parse(src, opts)
	if err != nil {
		panic(err)
	}
	return n
}

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokLParen
	tokRParen
	tokCaret
	tokName
	tokInt
	tokReal
	tokChar
	tokStr
	tokOid
)

type token struct {
	kind tokKind
	text string
	pos  int
	ival int64
	rval float64
	uval uint64
}

type parser struct {
	src    string
	toks   []token
	cur    int
	opts   ParseOpts
	gen    *VarGen
	scopes []map[string]*Var
	free   map[string]*Var
}

func newParser(src string, opts ParseOpts) *parser {
	gen := opts.Gen
	if gen == nil {
		gen = NewVarGen()
	}
	return &parser{src: src, opts: opts, gen: gen}
}

func (p *parser) errorf(tok token, format string, args ...any) error {
	line := 1 + strings.Count(p.src[:tok.pos], "\n")
	return fmt.Errorf("tml: line %d: %s", line, fmt.Sprintf(format, args...))
}

func (p *parser) peek() token {
	if p.toks == nil {
		if err := p.lex(); err != nil {
			// Lexing errors surface as a synthetic EOF; parseTerm
			// re-runs lex to report them.
			p.toks = []token{{kind: tokEOF, pos: len(p.src)}}
		}
	}
	return p.toks[p.cur]
}

func (p *parser) next() token {
	t := p.peek()
	if t.kind != tokEOF {
		p.cur++
	}
	return t
}

func (p *parser) lex() error {
	src := p.src
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == ';':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '(':
			p.toks = append(p.toks, token{kind: tokLParen, pos: i, text: "("})
			i++
		case c == ')':
			p.toks = append(p.toks, token{kind: tokRParen, pos: i, text: ")"})
			i++
		case c == '!':
			p.toks = append(p.toks, token{kind: tokCaret, pos: i, text: "!"})
			i++
		case c == '\'':
			if i+2 < len(src) && src[i+2] == '\'' {
				p.toks = append(p.toks, token{kind: tokChar, pos: i, text: src[i : i+3], ival: int64(src[i+1])})
				i += 3
			} else {
				return fmt.Errorf("tml: offset %d: malformed character literal", i)
			}
		case c == '"':
			j := i + 1
			for j < len(src) && src[j] != '"' {
				if src[j] == '\\' {
					j++
				}
				j++
			}
			if j >= len(src) {
				return fmt.Errorf("tml: offset %d: unterminated string", i)
			}
			s, err := strconv.Unquote(src[i : j+1])
			if err != nil {
				return fmt.Errorf("tml: offset %d: bad string: %v", i, err)
			}
			p.toks = append(p.toks, token{kind: tokStr, pos: i, text: s})
			i = j + 1
		case c == '<' && strings.HasPrefix(src[i:], "<oid"):
			// <oid 0xHEX>
			j := strings.IndexByte(src[i:], '>')
			if j < 0 {
				return fmt.Errorf("tml: offset %d: unterminated <oid …>", i)
			}
			inner := strings.TrimSpace(src[i+1 : i+j])
			fields := strings.Fields(inner)
			if len(fields) != 2 || fields[0] != "oid" {
				return fmt.Errorf("tml: offset %d: malformed OID literal %q", i, src[i:i+j+1])
			}
			u, err := strconv.ParseUint(strings.TrimPrefix(fields[1], "0x"), 16, 64)
			if err != nil {
				return fmt.Errorf("tml: offset %d: bad OID: %v", i, err)
			}
			p.toks = append(p.toks, token{kind: tokOid, pos: i, uval: u})
			i += j + 1
		case (c >= '0' && c <= '9') ||
			(c == '-' && i+1 < len(src) && src[i+1] >= '0' && src[i+1] <= '9'):
			j := i
			if c == '-' {
				j++
			}
			isReal := false
			for j < len(src) {
				d := src[j]
				if d >= '0' && d <= '9' {
					j++
				} else if d == '.' || d == 'e' || d == 'E' {
					isReal = true
					j++
					if j < len(src) && (src[j] == '+' || src[j] == '-') {
						j++
					}
				} else {
					break
				}
			}
			text := src[i:j]
			if text == "-" {
				return fmt.Errorf("tml: offset %d: lone '-'", i)
			}
			if isReal {
				r, err := strconv.ParseFloat(text, 64)
				if err != nil {
					return fmt.Errorf("tml: offset %d: bad real %q: %v", i, text, err)
				}
				p.toks = append(p.toks, token{kind: tokReal, pos: i, text: text, rval: r})
			} else {
				v, err := strconv.ParseInt(text, 10, 64)
				if err != nil {
					return fmt.Errorf("tml: offset %d: bad integer %q: %v", i, text, err)
				}
				p.toks = append(p.toks, token{kind: tokInt, pos: i, text: text, ival: v})
			}
			i = j
		default:
			j := i
			for j < len(src) && !isDelim(src[j]) {
				j++
			}
			if j == i {
				return fmt.Errorf("tml: offset %d: unexpected character %q", i, c)
			}
			p.toks = append(p.toks, token{kind: tokName, pos: i, text: src[i:j]})
			i = j
		}
	}
	p.toks = append(p.toks, token{kind: tokEOF, pos: len(src)})
	return nil
}

func isDelim(c byte) bool {
	switch c {
	case ' ', '\t', '\n', '\r', '(', ')', ';', '"', '\'', '!':
		return true
	}
	return false
}

func (p *parser) parseTerm() (Node, error) {
	// Surface lexer errors eagerly.
	if p.toks == nil {
		if err := p.lex(); err != nil {
			return nil, err
		}
	}
	tok := p.peek()
	if tok.kind == tokLParen {
		return p.parseApp()
	}
	return p.parseValue()
}

func (p *parser) parseApp() (*App, error) {
	tok := p.next()
	if tok.kind != tokLParen {
		return nil, p.errorf(tok, "expected '(', got %q", tok.text)
	}
	fn, err := p.parseValue()
	if err != nil {
		return nil, err
	}
	var args []Value
	for {
		t := p.peek()
		if t.kind == tokRParen {
			p.next()
			return &App{Fn: fn, Args: args}, nil
		}
		if t.kind == tokEOF {
			return nil, p.errorf(t, "unexpected end of input in application")
		}
		a, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
	}
}

func (p *parser) parseValue() (Value, error) {
	tok := p.next()
	switch tok.kind {
	case tokInt:
		return Int(tok.ival), nil
	case tokReal:
		return Real(tok.rval), nil
	case tokChar:
		return Char(byte(tok.ival)), nil
	case tokStr:
		return Str(tok.text), nil
	case tokOid:
		return NewOid(tok.uval), nil
	case tokName:
		switch tok.text {
		case "true":
			return Bool(true), nil
		case "false":
			return Bool(false), nil
		case "ok":
			return Unit(), nil
		case "proc", "cont", "lambda", "λ":
			return p.parseAbs(tok)
		}
		return p.resolve(tok.text), nil
	case tokCaret:
		name := p.next()
		if name.kind != tokName {
			return nil, p.errorf(name, "expected name after '!'")
		}
		v := p.resolve(name.text)
		if w, ok := v.(*Var); ok {
			w.Cont = true
		}
		return v, nil
	case tokLParen:
		return nil, p.errorf(tok, "applications may not be nested as values (paper Fig. 1)")
	default:
		return nil, p.errorf(tok, "unexpected token %q", tok.text)
	}
}

// parseAbs parses the parameter list and body of an abstraction. The
// keyword determines the default continuation flags: in a 'cont' head no
// parameter is a continuation; in a 'proc' head the trailing two
// parameters default to continuations (ce, cc; paper §2.2 rule 5) unless
// explicit '!' markers appear anywhere in the list, in which case the
// markers are authoritative.
func (p *parser) parseAbs(head token) (Value, error) {
	open := p.next()
	if open.kind != tokLParen {
		return nil, p.errorf(open, "expected '(' after %q", head.text)
	}
	type par struct {
		name   string
		marked bool
	}
	var pars []par
	anyMarked := false
	for {
		t := p.next()
		switch t.kind {
		case tokRParen:
			goto done
		case tokCaret:
			nm := p.next()
			if nm.kind != tokName {
				return nil, p.errorf(nm, "expected name after '!'")
			}
			pars = append(pars, par{name: nm.text, marked: true})
			anyMarked = true
		case tokName:
			pars = append(pars, par{name: t.text})
		case tokEOF:
			return nil, p.errorf(t, "unexpected end of input in parameter list")
		default:
			return nil, p.errorf(t, "unexpected token %q in parameter list", t.text)
		}
	}
done:
	params := make([]*Var, len(pars))
	scope := make(map[string]*Var, len(pars))
	for i, pr := range pars {
		v := p.makeVar(pr.name)
		cont := pr.marked
		if !anyMarked && head.text != "cont" && i >= len(pars)-2 {
			cont = true // proc(v₁…vₙ ce cc)
		}
		v.Cont = cont
		params[i] = v
		scope[pr.name] = v
	}
	p.scopes = append(p.scopes, scope)
	body, err := p.parseApp()
	p.scopes = p.scopes[:len(p.scopes)-1]
	if err != nil {
		return nil, err
	}
	return &Abs{Params: params, Body: body}, nil
}

// resolve maps a name to its lexical binder, a primitive, or a free
// variable (one *Var per distinct free name).
func (p *parser) resolve(name string) Value {
	for i := len(p.scopes) - 1; i >= 0; i-- {
		if v, ok := p.scopes[i][name]; ok {
			return v
		}
	}
	if p.opts.IsPrim != nil && p.opts.IsPrim(name) {
		return NewPrim(name)
	}
	if p.free == nil {
		p.free = make(map[string]*Var)
	}
	if v, ok := p.free[name]; ok {
		return v
	}
	v := p.makeVar(name)
	p.free[name] = v
	return v
}

// makeVar constructs a variable from a token, honouring an explicit _N
// suffix as the variable ID.
func (p *parser) makeVar(name string) *Var {
	if i := strings.LastIndexByte(name, '_'); i > 0 && i < len(name)-1 {
		if id, err := strconv.Atoi(name[i+1:]); err == nil && id >= 0 {
			p.gen.Skip(id)
			return &Var{Name: name[:i], ID: id}
		}
	}
	return p.gen.Fresh(name)
}
