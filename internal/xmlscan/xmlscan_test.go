package xmlscan_test

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"cn/internal/xmlscan"
	"cn/internal/xmlscan/scantest"
)

// tokens renders the scanner's token stream, one token a line.
func tokens(src []byte) (string, error) {
	var sb strings.Builder
	sc := xmlscan.New(src)
	for {
		kind, err := sc.Next()
		if err == io.EOF {
			return sb.String(), nil
		}
		if err != nil {
			return sb.String(), err
		}
		switch kind {
		case xmlscan.Start:
			fmt.Fprintf(&sb, "<%s", sc.Name())
			for _, a := range sc.Attrs() {
				fmt.Fprintf(&sb, " %s=%q", a.Name, a.Value)
			}
			sb.WriteString(">\n")
		case xmlscan.End:
			fmt.Fprintf(&sb, "</%s>\n", sc.Name())
		case xmlscan.Text:
			fmt.Fprintf(&sb, "%q\n", sc.Text())
		}
	}
}

// oracleTokens renders what encoding/xml's strict decoder reports for the
// same input, the tokens the scanner skips left out.
func oracleTokens(src []byte) (string, error) {
	var sb strings.Builder
	dec := xml.NewDecoder(strings.NewReader(string(src)))
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return sb.String(), nil
		}
		if err != nil {
			return sb.String(), err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			fmt.Fprintf(&sb, "<%s", t.Name.Local)
			for _, a := range t.Attr {
				fmt.Fprintf(&sb, " %s=%q", a.Name.Local, a.Value)
			}
			sb.WriteString(">\n")
		case xml.EndElement:
			fmt.Fprintf(&sb, "</%s>\n", t.Name.Local)
		case xml.CharData:
			fmt.Fprintf(&sb, "%q\n", []byte(t))
		}
	}
}

// sameTokens: both fail, or both report the same tokens. The scanner alone
// refuses a non-ASCII name.
func sameTokens(src []byte) error {
	want, wantErr := oracleTokens(src)
	got, err := tokens(src)
	if both, divergence := scantest.SameVerdict(wantErr, err); !both {
		return divergence
	}
	if got != want {
		return fmt.Errorf("tokens differ:\nscanner\n%s\nencoding/xml\n%s", got, want)
	}
	return nil
}

func corpus(tb testing.TB) []string {
	cnxDocs, xmiDocs := scantest.Written(tb)
	docs := append(cnxDocs, xmiDocs...)
	docs = append(docs, scantest.Cases...)
	return append(docs, scantest.Literals(tb)...)
}

func TestTokensMatchXML(t *testing.T) {
	for _, doc := range corpus(t) {
		if err := sameTokens([]byte(doc)); err != nil {
			t.Errorf("%q: %v", doc, err)
		}
	}
}

func FuzzTokensMatchXML(f *testing.F) {
	for _, doc := range corpus(f) {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		if err := sameTokens(src); err != nil {
			t.Fatal(err)
		}
	})
}

func TestTokens(t *testing.T) {
	got, err := tokens([]byte("<?xml version=\"1.0\"?>\n<!DOCTYPE r [<!ENTITY e \"v\">]>\n" +
		"<p:r xmlns:p=\"u\" a=\"1 &lt; 2\" p:b='x\r\ny'><!-- c -->t&amp;<![CDATA[<raw>]]><e/></p:r>\n"))
	want := "\"\\n\"\n\"\\n\"\n<r p=\"u\" a=\"1 < 2\" b=\"x\\ny\">\n\"t&\"\n\"<raw>\"\n<e>\n</e>\n</r>\n\"\\n\"\n"
	if err != nil || got != want {
		t.Errorf("tokens (err %v):\n%s\nwant\n%s", err, got, want)
	}
}

func TestParentSkipAttr(t *testing.T) {
	sc := xmlscan.New([]byte(`<a><b k="1" x:k="2"><c><d/></c>text</b><e/></a>`))
	next := func(want xmlscan.Kind, name string) {
		t.Helper()
		kind, err := sc.Next()
		if err != nil || kind != want || string(sc.Name()) != name {
			t.Fatalf("Next = %v %q, %v; want %v %q", kind, sc.Name(), err, want, name)
		}
	}
	next(xmlscan.Start, "a")
	if sc.Parent() != nil {
		t.Errorf("root's parent = %q", sc.Parent())
	}
	next(xmlscan.Start, "b")
	if string(sc.Parent()) != "a" || string(sc.Attr("k")) != "1" || sc.Attr("missing") != nil {
		t.Errorf("b: parent %q, k %q, missing %q", sc.Parent(), sc.Attr("k"), sc.Attr("missing"))
	}
	if err := sc.Skip(); err != nil {
		t.Fatal(err)
	}
	if string(sc.Name()) != "b" || string(sc.Parent()) != "a" {
		t.Errorf("after Skip: on </%s> inside %q", sc.Name(), sc.Parent())
	}
	next(xmlscan.Start, "e")
	if err := sc.Skip(); err != nil { // self-closing: the end is the next token
		t.Fatal(err)
	}
	next(xmlscan.End, "a")
	if sc.Parent() != nil {
		t.Errorf("root's end has parent %q", sc.Parent())
	}
	if _, err := sc.Next(); err != io.EOF {
		t.Errorf("after the root: %v, want io.EOF", err)
	}
}

func TestErrorsNameTheLine(t *testing.T) {
	for src, line := range map[string]int{
		"<a>\n<b>\n</a>":                3,
		"<a\nb=1/>":                     2,
		"<a>\n\n&bogus;</a>":            3,
		"<a>":                           1,
		"<a>\n":                         2,
		"<a>\n<!-- -- -->":              2,
		"<?xml version=\"2.0\"?>\n<a/>": 1,
		"<a>\r\n\x01</a>":               2,
	} {
		_, err := tokens([]byte(src))
		var se *xmlscan.Error
		if !errors.As(err, &se) || se.Line != line {
			t.Errorf("%q: error %v, want line %d", src, err, line)
		}
	}
}

// TestNonASCIINameRefused pins the scanner's one divergence from
// encoding/xml, which reads these.
func TestNonASCIINameRefused(t *testing.T) {
	for _, src := range []string{"<é/>", "<a é=\"1\"/>", "<a></aé>", "<?é?><a/>", "<a:é/>"} {
		if _, err := oracleTokens([]byte(src)); err != nil && src != "<a></aé>" {
			t.Fatalf("encoding/xml refuses %q: %v", src, err)
		}
		if _, err := tokens([]byte(src)); !errors.Is(err, xmlscan.ErrNonASCIIName) {
			t.Errorf("%q: %v, want ErrNonASCIIName", src, err)
		}
	}
	if got, err := tokens([]byte("<a b=\"é\">é<!-- é --></a>")); err != nil {
		t.Errorf("non-ASCII outside names: %q, %v", got, err)
	}
}
