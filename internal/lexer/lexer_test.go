package lexer

import (
	"testing"
	"testing/quick"

	"vrp/internal/source"
	"vrp/internal/token"
)

func lex(t *testing.T, src string) ([]token.Token, *source.ErrorList) {
	t.Helper()
	var errs source.ErrorList
	f := source.NewFile("t.mini", src)
	return all(New(f, &errs)), &errs
}

// all scans the whole file and returns every token including the final
// EOF.
func all(l *Lexer) []token.Token {
	var toks []token.Token
	for {
		t := l.Next()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks
		}
	}
}

func kinds(toks []token.Token) []token.Kind {
	out := make([]token.Kind, len(toks))
	for i, tk := range toks {
		out[i] = tk.Kind
	}
	return out
}

func expectKinds(t *testing.T, src string, want ...token.Kind) {
	t.Helper()
	toks, errs := lex(t, src)
	if errs.Len() > 0 {
		t.Fatalf("lex(%q) errors: %v", src, errs.Err())
	}
	want = append(want, token.EOF)
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("lex(%q) = %v, want %v", src, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("lex(%q)[%d] = %v, want %v", src, i, got[i], want[i])
		}
	}
}

func TestOperators(t *testing.T) {
	expectKinds(t, "+ - * / %", token.Plus, token.Minus, token.Star, token.Slash, token.Percent)
	expectKinds(t, "= += -= *= /= %=",
		token.Assign, token.PlusAssign, token.MinusAssign, token.StarAssign,
		token.SlashAssign, token.PercentAssign)
	expectKinds(t, "== != < <= > >=",
		token.Eq, token.Neq, token.Lt, token.Leq, token.Gt, token.Geq)
	expectKinds(t, "&& || !", token.AndAnd, token.OrOr, token.Not)
	expectKinds(t, "++ --", token.Inc, token.Dec)
	expectKinds(t, "( ) { } [ ] , ;",
		token.LParen, token.RParen, token.LBrace, token.RBrace,
		token.LBracket, token.RBracket, token.Comma, token.Semi)
}

func TestMaximalMunch(t *testing.T) {
	// ++ vs + +, <= vs < =, etc.
	expectKinds(t, "x+++1", token.Ident, token.Inc, token.Plus, token.Int)
	expectKinds(t, "a<=b", token.Ident, token.Leq, token.Ident)
	expectKinds(t, "a<b", token.Ident, token.Lt, token.Ident)
	expectKinds(t, "a==b", token.Ident, token.Eq, token.Ident)
	expectKinds(t, "a=b", token.Ident, token.Assign, token.Ident)
	expectKinds(t, "a!=-b", token.Ident, token.Neq, token.Minus, token.Ident)
}

func TestIdentifiersAndKeywords(t *testing.T) {
	toks, _ := lex(t, "while whilex _x x1 funcs")
	want := []token.Kind{token.KwWhile, token.Ident, token.Ident, token.Ident, token.Ident, token.EOF}
	got := kinds(toks)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
	if toks[1].Lit != "whilex" || toks[2].Lit != "_x" {
		t.Errorf("identifier literals wrong: %q %q", toks[1].Lit, toks[2].Lit)
	}
}

func TestNumbers(t *testing.T) {
	toks, errs := lex(t, "0 7 123456789")
	if errs.Len() > 0 {
		t.Fatal(errs.Err())
	}
	if toks[0].Lit != "0" || toks[1].Lit != "7" || toks[2].Lit != "123456789" {
		t.Errorf("number literals wrong: %v", toks)
	}
}

func TestNumberFollowedByLetter(t *testing.T) {
	_, errs := lex(t, "123abc")
	if errs.Len() == 0 {
		t.Error("expected an error for 123abc")
	}
}

func TestComments(t *testing.T) {
	expectKinds(t, "a // comment\nb", token.Ident, token.Ident)
	expectKinds(t, "a /* multi\nline */ b", token.Ident, token.Ident)
	expectKinds(t, "// only a comment")
	_, errs := lex(t, "/* unterminated")
	if errs.Len() == 0 {
		t.Error("expected an error for unterminated block comment")
	}
}

func TestIllegalCharacter(t *testing.T) {
	toks, errs := lex(t, "a $ b")
	if errs.Len() == 0 {
		t.Error("expected an error for '$'")
	}
	// Scanning continues past the bad character.
	got := kinds(toks)
	if got[0] != token.Ident || got[1] != token.Illegal || got[2] != token.Ident {
		t.Errorf("tokens = %v", got)
	}
}

func TestLoneAmpersandPipe(t *testing.T) {
	_, errs := lex(t, "a & b")
	if errs.Len() == 0 {
		t.Error("expected an error for single '&'")
	}
	_, errs2 := lex(t, "a | b")
	if errs2.Len() == 0 {
		t.Error("expected an error for single '|'")
	}
}

func TestOffsets(t *testing.T) {
	toks, _ := lex(t, "ab  cd")
	if toks[0].Offset != 0 || toks[1].Offset != 4 {
		t.Errorf("offsets = %d, %d", toks[0].Offset, toks[1].Offset)
	}
}

// Property: the lexer terminates and produces monotonically advancing
// offsets for arbitrary input.
func TestLexerTotal(t *testing.T) {
	check := func(raw []byte) bool {
		var errs source.ErrorList
		f := source.NewFile("t", string(raw))
		toks := all(New(f, &errs))
		if len(toks) == 0 || toks[len(toks)-1].Kind != token.EOF {
			return false
		}
		last := -1
		for _, tk := range toks[:len(toks)-1] {
			if tk.Offset < last {
				return false
			}
			last = tk.Offset
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
