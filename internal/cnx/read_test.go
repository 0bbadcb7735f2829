package cnx_test

import (
	"encoding/xml"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cn/internal/cnx"
	"cn/internal/xmlscan"
	"cn/internal/xmlscan/scantest"
)

// oracleParse is how Parse read a document before it had a reader of its
// own: encoding/xml's strict decoder, by reflection, into cnx.Document. It is
// the reference ParseBytes is held to.
func oracleParse(src []byte) (*cnx.Document, error) {
	var doc cnx.Document
	if err := xml.NewDecoder(strings.NewReader(string(src))).Decode(&doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

// task wraps a fragment in the descriptor around one task's children.
func inTask(fragment string) string {
	return `<cn2><client class="C"><job name="j"><task name="t" class="K">` + fragment + `</task></job></client></cn2>`
}

// cnxCases are what the contract lists for the descriptor itself: how
// encoding/xml filled a Document from input no writer here produces.
var cnxCases = []string{
	// Integers: empty is 0, blank is an error, space is trimmed.
	inTask(`<task-req><memory> </memory></task-req>`),
	inTask(`<task-req><memory></memory></task-req>`),
	inTask(`<task-req><memory/></task-req>`),
	inTask(`<task-req><memory> 12 </memory></task-req>`),
	inTask("<task-req><memory>\n\t12 </memory></task-req>"),
	inTask(`<task-req><memory>+12</memory></task-req>`),
	inTask(`<task-req><memory>-5</memory></task-req>`),
	inTask(`<task-req><memory>1_0</memory></task-req>`),
	inTask(`<task-req><memory>0x10</memory></task-req>`),
	inTask(`<task-req><memory>1.0</memory></task-req>`),
	inTask(`<task-req><memory>99999999999999999999</memory></task-req>`),
	inTask(`<task-req><memory>9223372036854775807</memory></task-req>`),
	inTask(`<task-req><memory>9223372036854775808</memory></task-req>`),
	inTask(`<task-req><memory>1<x>2</x>3</memory></task-req>`),
	inTask(`<task-req><memory>1<!-- c -->2</memory></task-req>`),
	inTask(`<task-req><memory><![CDATA[7]]></memory></task-req>`),
	inTask(`<task-req><memory>&#49;&#x32;</memory></task-req>`),
	inTask(`<task-req><memory unit="MB">5</memory></task-req>`),
	`<cn2><client class="C" port=""/></cn2>`,
	`<cn2><client class="C" port=" "/></cn2>`,
	`<cn2><client class="C" port=" 80 "/></cn2>`,
	`<cn2><client class="C" port="abc"/></cn2>`,
	`<cn2><client class="C" port="1" port="2"/></cn2>`,
	`<cn2><client class="C" port="x" port="2"/></cn2>`,
	// Repeated elements: scalars overwritten, lists appended, a pointer reused.
	`<cn2><client class="A" port="1"><job name="j1"/></client><client log="L"><job name="j2"/></client></cn2>`,
	`<cn2><client class="A"/><client class="B" class="C"/></cn2>`,
	inTask(`<task-req><memory>1</memory></task-req><task-req><runmodel>R</runmodel></task-req>`),
	inTask(`<task-req><memory>1</memory><runmodel>R</runmodel></task-req><task-req><runmodel/><memory/></task-req>`),
	inTask(`<task-req><memory>1</memory><memory>2</memory><runmodel>a</runmodel><runmodel>b</runmodel></task-req>`),
	inTask(`<task-req/>`),
	inTask(`<param type="A">x</param><task-req/><param type="B" type="C">y</param><param/>`),
	// Names are matched by local part; unknown ones are skipped.
	`<c:cn2 xmlns:c="u"><c:client c:class="X" xmlns:log="L"><c:job x:name="n"><c:task c:name="t" class="K" xmlns:depends="d"><c:task-req><c:memory>3</c:memory><z:runmodel>R</z:runmodel></c:task-req><c:param c:type="T">v</c:param></c:task></c:job></c:client></c:cn2>`,
	`<cn2 class="ignored" xmlns="urn:cn"><client class="C"><job><task name="a" class="X"/></job></client></cn2>`,
	`<cn2><Client class="C"/><client Class="D"/></cn2>`,
	`<cn2><other><client class="nested"/></other><client class="C"><job><job name="inner"/><tasks><task name="x"/></tasks></job></client></cn2>`,
	inTask(`<task name="nested" class="N"/><param type="T">a<b>c</b>d<![CDATA[<e>]]>&amp;</param>`),
	inTask(`text <param type="T"> spaced  </param> more text`),
	inTask("<param type=\"T\">line1\r\nline2\rline3&#13;\n</param>"),
	`<cn2><client class="a&#10;b&amp;c" log="&lt;&quot;&apos;&gt;"><job name="x&#x9;y"/></client></cn2>`,
	// The root, and what follows it.
	`<foo/>`, `<cn2x/>`, `<x:cn2/>`, `<cn2:x/>`, `<cn2/>`, `<cn2></cn2>`, `<cn2>`, `text <cn2/>`, `<!-- c --><?pi?><!DOCTYPE cn2><cn2/>`,
	`<cn2/>garbage <<<`, `<cn2></cn2></cn2>`, `<cn2/><cn2><client class="second"/></cn2>`, "<cn2/>\xff\x00",
	`<foo><<<`, `<cn2><client class="C"></cn2>`, `<cn2><client class="C"/>`,
}

// corpus is everything the differential tests start from.
func corpus(tb testing.TB) []string {
	written, xmiDocs := scantest.Written(tb)
	docs := append(written, xmiDocs...)
	docs = append(docs, cnxCases...)
	docs = append(docs, scantest.Literals(tb)...)
	for _, c := range scantest.Cases {
		docs = append(docs, c, inTask(c), inTask(`<param type="String">`+c+`</param>`),
			`<cn2>`+c+`<client class="after"/></cn2>`)
	}
	return docs
}

// sameAsOracle is the contract: for any input the reader and the oracle both
// fail, or return the same document (the root's name space aside, which only
// the decoder resolves). The one refusal the reader adds is a non-ASCII name.
func sameAsOracle(src []byte) error {
	want, wantErr := oracleParse(src)
	got, err := cnx.ParseBytes(src)
	if both, divergence := scantest.SameVerdict(wantErr, err); !both {
		return divergence
	}
	want.XMLName.Space = ""
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("documents differ:\nreader %+v\noracle %+v", got, want)
	}
	return nil
}

func TestReaderMatchesXML(t *testing.T) {
	accepted := 0
	for _, doc := range corpus(t) {
		if err := sameAsOracle([]byte(doc)); err != nil {
			t.Errorf("%q: %v", doc, err)
		}
		if _, err := cnx.ParseString(doc); err == nil {
			accepted++
		}
	}
	if accepted < 60 {
		t.Errorf("only %d corpus documents parse; the corpus should hold the repository's fixtures", accepted)
	}
}

func FuzzCNXReaderMatchesXML(f *testing.F) {
	for _, doc := range corpus(f) {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		if err := sameAsOracle(src); err != nil {
			t.Fatal(err)
		}
	})
}

// TestWritersStillParse: nothing Document.Encode or the XMI lowering writes
// may be refused, and it reads back as what was written.
func TestWritersStillParse(t *testing.T) {
	written, _ := scantest.Written(t)
	for _, text := range written {
		doc, err := cnx.ParseString(text)
		if err != nil {
			t.Fatalf("%v\n%s", err, text)
		}
		again, err := doc.EncodeString()
		if err != nil || again != text {
			t.Errorf("re-encoded text differs (err %v):\n%s\nwant\n%s", err, again, text)
		}
	}
}

// TestNonASCIINameRefused pins the reader's one divergence from
// encoding/xml: a name with a non-ASCII letter, which XML allows.
func TestNonASCIINameRefused(t *testing.T) {
	for _, src := range []string{
		"<cn2><café/><client class=\"C\"/></cn2>",
		"<cn2><client class=\"C\" état=\"x\"/></cn2>",
	} {
		if _, err := oracleParse([]byte(src)); err != nil {
			t.Fatalf("encoding/xml refuses %q: %v", src, err)
		}
		_, err := cnx.ParseString(src)
		if !errors.Is(err, xmlscan.ErrNonASCIIName) {
			t.Errorf("ParseString(%q) = %v, want ErrNonASCIIName", src, err)
		}
	}
	// Values and text are not names.
	doc, err := cnx.ParseString("<cn2><client class=\"Café\"><job><task name=\"t\"><param type=\"String\">世界</param></task></job></client></cn2>")
	if err != nil || doc.Client.Class != "Café" || doc.Client.Jobs[0].Tasks[0].Params[0].Value != "世界" {
		t.Errorf("non-ASCII values: %+v, %v", doc, err)
	}
}

func TestParseErrorNamesLine(t *testing.T) {
	_, err := cnx.ParseString("<cn2>\n<client class=\"C\">\n<job>\n</client>\n</cn2>")
	var se *xmlscan.Error
	if !errors.As(err, &se) || se.Line != 4 || !strings.Contains(err.Error(), "line 4") {
		t.Errorf("error = %v, want a syntax error at line 4", err)
	}
}

// TestDocumentOwnsItsStrings: a result keeps the client class and job names
// for ResultTTL; were they slices of the body, each would keep all of it.
func TestDocumentOwnsItsStrings(t *testing.T) {
	written, _ := scantest.Written(t)
	for _, text := range append(written, cnxCases...) {
		src := []byte(text)
		doc, err := cnx.ParseBytes(src)
		if err != nil {
			continue
		}
		if p := scantest.PointsInto(doc, src); p != "" {
			t.Errorf("%s points into the input\n%s", p, text)
		}
	}
}

// TestParseAllocs: a 32-task submission is read in 184 allocations — the
// strings the document keeps and its slices — where the reflective decode
// took 1855. The guard allows a quarter more.
func TestParseAllocs(t *testing.T) {
	src := []byte(scantest.FanCNX(t, 32))
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := cnx.ParseBytes(src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 230 {
		t.Errorf("ParseBytes of a 32-task body: %.0f allocations, want <= 230", allocs)
	}
}

var sink any

func benchParse(b *testing.B, text string) {
	src := []byte(text)
	b.Run("scanner", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(src)))
		for i := 0; i < b.N; i++ {
			doc, err := cnx.ParseBytes(src)
			if err != nil {
				b.Fatal(err)
			}
			sink = doc
		}
	})
	b.Run("oracle", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(src)))
		for i := 0; i < b.N; i++ {
			doc, err := oracleParse(src)
			if err != nil {
				b.Fatal(err)
			}
			sink = doc
		}
	})
}

func BenchmarkParseCNX(b *testing.B) {
	b.Run("fan32", func(b *testing.B) { benchParse(b, scantest.FanCNX(b, 32)) })
	b.Run("fan64", func(b *testing.B) { benchParse(b, scantest.FanCNX(b, 64)) })
	b.Run("chain4", func(b *testing.B) { benchParse(b, scantest.ChainCNX(b, 4)) })
}

// BenchmarkCompile is what a CNX submission costs before its first task can
// be placed: parse, Validate, Specs.
func BenchmarkCompile(b *testing.B) {
	src := []byte(scantest.FanCNX(b, 32))
	for name, parse := range map[string]func([]byte) (*cnx.Document, error){"scanner": cnx.ParseBytes, "oracle": oracleParse} {
		b.Run("fan32/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				doc, err := parse(src)
				if err != nil {
					b.Fatal(err)
				}
				if err := doc.Validate(); err != nil {
					b.Fatal(err)
				}
				specs, err := doc.Client.Jobs[0].Specs()
				if err != nil {
					b.Fatal(err)
				}
				sink = specs
			}
		})
	}
}
