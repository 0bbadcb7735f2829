// Package scantest is the corpus the tests of xmlscan and of its two readers
// share: the XML-level cases the scanner must treat as encoding/xml does,
// every XML literal the repository's own tests carry, and the documents its
// writers produce. It is imported by tests only.
package scantest

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"cn/internal/cnx"
	"cn/internal/core"
	"cn/internal/task"
	"cn/internal/transform"
	"cn/internal/xmlscan"
)

// SameVerdict is the first half of every differential check: given what the
// encoding/xml oracle and the reader over xmlscan said of one input, it
// reports whether both accepted it (the caller then compares what they read)
// or a divergence in accepting — allowed only when the reader alone refuses,
// and only a non-ASCII name.
func SameVerdict(oracleErr, err error) (bothAccepted bool, divergence error) {
	switch {
	case oracleErr == nil && err == nil:
		return true, nil
	case oracleErr != nil && err == nil:
		return false, fmt.Errorf("the reader accepted what encoding/xml refused: %v", oracleErr)
	case oracleErr == nil && !errors.Is(err, xmlscan.ErrNonASCIIName):
		return false, fmt.Errorf("the reader refused what encoding/xml read: %v", err)
	}
	return false, nil
}

// PointsInto walks doc and reports the path of a string whose bytes lie
// inside src, "" when every string is a copy.
func PointsInto(doc any, src []byte) string { return pointsInto(reflect.ValueOf(doc), src, "doc") }

func pointsInto(v reflect.Value, src []byte, path string) string {
	switch v.Kind() {
	case reflect.String:
		if s := v.String(); len(s) > 0 && len(src) > 0 {
			p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.SliceData(src)))
			if p >= lo && p < lo+uintptr(len(src)) {
				return path
			}
		}
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			return pointsInto(v.Elem(), src, path)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if p := pointsInto(v.Field(i), src, path+"."+v.Type().Field(i).Name); p != "" {
				return p
			}
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if p := pointsInto(v.Index(i), src, fmt.Sprintf("%s[%d]", path, i)); p != "" {
				return p
			}
		}
	}
	return ""
}

// Cases are documents and fragments that exercise one rule each. A reader's
// differential test feeds them as they are and wrapped in its own envelope.
var Cases = []string{
	// Names, prefixes and namespace declarations.
	`<a x:class="1" class="2"/>`,
	`<x:a xmlns:x="u"><x:b/></x:a>`,
	`<x:a xmlns:x="u" xmlns:y="u"></y:a>`,
	`<x:a></a>`,
	`<a></x:a>`,
	`<a xmlns="u" xmlns:class="v" xmlns:name="w"/>`,
	`<a:b:c/>`, `<:a/>`, `<a:/>`, `<a.b-c_d/>`, `<_a/>`, `<1a/>`, `<-a/>`, `<.a/>`,
	`<a b:c:d="1"/>`, `<a :b="1"/>`, `<a b:="1"/>`,
	"<\u00e9/>", "<a \u00e9=\"1\"/>", "<a></a\u00e9>", "<caf\u00e9/>", "<?\u00e9 x?><a/>",
	"<a b=\"\u00e9\">\u00fc\u4e16\U0001F600</a>",
	// Attributes.
	`<a b="1" b="2"/>`,
	`<a b="x<y"/>`,
	`<a b='x"y' c="x'y"/>`,
	`<a b="1"c="2"/>`,
	`<a b = "1" />`,
	`<a b=1/>`, `<a b/>`, `<a b=/>`, `<a b="1/>`, `<a "b"="1"/>`,
	`<a b="]]>"/>`,
	"<a b=\"x\r\ny\rz\tw\nv\"/>",
	`<a b="&lt;&gt;&amp;&apos;&quot;&#65;&#x41;&#10;"/>`,
	// Tags.
	`<a>`, `</a>`, `<a></b>`, `<a/ >`, `< a/>`, `<a></a >`, `<a></ a>`, `<a></a b="1">`, `<a`, `<`, `<a/`, `</`, `</a`,
	`<a><b></a></b>`,
	// Character data and references.
	`<a>]]></a>`, `<a>]]&gt;</a>`, `<a>]]<!-- x -->></a>`, `<a>]]]></a>`, `<a>]>]]</a>`,
	`<a>&#x0;</a>`, `<a>&#0;</a>`, `<a>&#1;</a>`, `<a>&#9;&#10;&#13;</a>`, `<a>&#xD800;</a>`, `<a>&#xDFFF;</a>`,
	`<a>&#xFFFD;</a>`, `<a>&#xFFFE;</a>`, `<a>&#xFFFF;</a>`, `<a>&#x10FFFF;</a>`, `<a>&#x110000;</a>`,
	`<a>&#99999999999999999999;</a>`, `<a>&#;</a>`, `<a>&#x;</a>`, `<a>&#X41;</a>`, `<a>&#x4G;</a>`, `<a>&#-1;</a>`,
	`<a>&amp</a>`, `<a>&amp ;</a>`, `<a>& amp;</a>`, `<a>&bogus;</a>`, `<a>&;</a>`, `<a>&</a>`, `<a>&#</a>`, `<a>&#x</a>`, `<a>&lt</a>`,
	`<a>&LT;</a>`, "<a>&\u00e9;</a>", `<a>&lt;&gt;&amp;&apos;&quot;</a>`, `<a>&amp;amp;</a>`,
	"<a>p\r\nq\rr\n\rs</a>", "<a>&#13;\n</a>", "<a>\r&#10;</a>", "<a>\r</a>", "<a b=\"\r\"/>",
	"<a>\xff</a>", "<a>\xc3</a>", "<a b=\"\xc3\"/>", "<a>\xc3\r\n\xa9</a>", "<a>\xed\xa0\x80</a>", "<a>\xf4\x90\x80\x80</a>",
	"<a>\x01</a>", "<a>\x00</a>", "<a b=\"\x1f\"/>", "<a>\x7f</a>", "<a>\xef\xbf\xbe</a>", "<a>\xef\xbf\xbf</a>", "<a>\xef\xbf\xbd</a>",
	"\xef\xbb\xbf<a/>", "", "   ", "text only", "text <a/> text",
	// CDATA.
	`<a><![CDATA[x]]><!-- c --><![CDATA[y]]></a>`,
	`<a><![CDATA[ ]]]]><![CDATA[> ]]></a>`,
	`<a><![CDATA[<b>&amp;]]></a>`,
	`<a><![CDATA[]]></a>`, `<a><![CDATA[]]]></a>`, `<a><![CDATA[x]]</a>`, `<a><![CDATA[x</a>`, `<a><![CDAT[x]]></a>`, `<a><![</a>`,
	"<a><![CDATA[p\r\nq\x01]]></a>", "<a><![CDATA[\xff]]></a>",
	`<![CDATA[top]]><a/>`,
	// Comments, processing instructions, directives.
	`<a><!-- comment with <tags> & stuff --></a>`,
	`<!----><a/>`, `<!-----><a/>`, `<!---><a/>`, `<!-- -- --><a/>`, `<!-- x ---><a/>`, `<!-x--><a/>`, `<!-- x`, `<!--`, `<!-`, `<!`,
	"<!-- \xff\x00 --><a/>",
	`<?target data?><a/>`, `<?t?><a/>`, `<? t?><a/>`, `<?1?><a/>`, `<?t`, `<?t ?`, `<?`, `<?t x?y?><a/>`,
	`<?xml version="1.0"?><a/>`, `<?xml version="1.1"?><a/>`, `<?xml version='1.0' encoding='utf-8'?><a/>`,
	`<?xml version="1.0" encoding="UTF-8"?><a/>`, `<?xml version="1.0" encoding="Utf-8"?><a/>`,
	`<?xml version="1.0" encoding="ISO-8859-1"?><a/>`, `<?xml encoding="latin1"?><a/>`, `<?xml?><a/>`, `<?xml ?><a/>`,
	`<?xml version=1.0?><a/>`, `<?xml version="1.0?><a/>`, `<?xml xversion="2.0"?><a/>`, `<?xml version= "2.0"?><a/>`,
	`<?xml version=?><a/>`, `<?xml sversion="1.0" version="3"?><a/>`, `<?XML version="9"?><a/>`,
	`<a><?xml version="1.0" encoding="latin1"?></a>`, `<?xml-stylesheet encoding="latin1"?><a/>`,
	`<!DOCTYPE a><a/>`,
	`<!DOCTYPE a [<!ENTITY x "y"> <!-- c > --> <!ELEMENT a (#PCDATA)>]><a>&x;</a>`,
	`<!DOCTYPE a [<!ENTITY x "y">]><a/>`,
	`<!DOCTYPE a SYSTEM "x>y"><a/>`, `<!DOCTYPE a SYSTEM 'x>y"'><a/>`, `<!DOCTYPE a "unclosed><a/>`,
	`<!DOCTYPE a [<!-- -- -->]><a/>`, `<!DOCTYPE a [<!- x>]><a/>`, `<!DOCTYPE a [<!-- x]><a/>`, `<!DOCTYPE a [<]><a/>`, `<!DOCTYPE a [<!]><a/>`,
	`<!DOCTYPE a <<>>><a/>`, `<!DOCTYPE a >><a/>`, `<!><a/>`, `<!>><a/>`, `<!"><a/>`, `<!<><a/>`, `<!'>'><a/>`, "<!\x00><a/>",
	// Nesting and what follows the root.
	strings.Repeat("<u>", 300) + strings.Repeat("</u>", 300),
	strings.Repeat("<u>", 300) + strings.Repeat("</u>", 299),
	strings.Repeat("<u>", 299) + strings.Repeat("</u>", 300),
	`<a/>trailing`, `<a/><b/>`, `<a/><`, `<a/></b>`, `<a/><!-- x`, `<a/>&bogus;`, "<a/>\xff", `<a></a><a>`,
}

// Literals returns every string literal holding a '<' in the repository's
// Go test files (its XML fixtures are inline; there is no testdata).
func Literals(tb testing.TB) []string {
	tb.Helper()
	root, err := os.Getwd()
	if err != nil {
		tb.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		if filepath.Dir(root) == root {
			tb.Fatal("scantest: no go.mod above the working directory")
		}
		root = filepath.Dir(root)
	}
	var out []string
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "out") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil && strings.Contains(s, "<") {
					out = append(out, s)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	if len(out) < 40 {
		tb.Fatalf("scantest: found %d XML literals under %s, expected the repository's fixtures", len(out), root)
	}
	return out
}

func noopTask(rng *rand.Rand, name, depends string) cnx.TaskDecl {
	return cnx.TaskDecl{
		Name: name, Jar: "noop.jar", Class: "cn.Noop", Depends: depends,
		Req: &cnx.ReqXML{Memory: 8 + rng.Intn(8), RunModel: task.RunAsThreadInTM.String()},
	}
}

func encodeCNX(tb testing.TB, class string, tasks []cnx.TaskDecl) string {
	tb.Helper()
	doc := &cnx.Document{Client: cnx.Client{Class: class, Jobs: []cnx.Job{{Name: strings.ToLower(class), Tasks: tasks}}}}
	s, err := doc.EncodeString()
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// FanCNX is the benchmark's fan-out body: n independent no-op tasks, written
// by Document.EncodeString.
func FanCNX(tb testing.TB, n int) string {
	rng := rand.New(rand.NewSource(int64(n)))
	tasks := make([]cnx.TaskDecl, n)
	for i := range tasks {
		tasks[i] = noopTask(rng, fmt.Sprintf("t%02d", i), "")
	}
	return encodeCNX(tb, "Fan", tasks)
}

// ChainCNX is the benchmark's chain body: n no-op tasks, each depending on
// the one before.
func ChainCNX(tb testing.TB, n int) string {
	rng := rand.New(rand.NewSource(int64(n)))
	tasks := make([]cnx.TaskDecl, n)
	for i := range tasks {
		dep := ""
		if i > 0 {
			dep = fmt.Sprintf("s%d", i-1)
		}
		tasks[i] = noopTask(rng, fmt.Sprintf("s%d", i), dep)
	}
	return encodeCNX(tb, "Chain", tasks)
}

func writeXMI(tb testing.TB, name string, g *core.Graph, err error) string {
	tb.Helper()
	if err != nil {
		tb.Fatal(err)
	}
	model := core.NewClient(name)
	if err := model.AddJob(g); err != nil {
		tb.Fatal(err)
	}
	doc, err := transform.ToXMI(model)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := doc.WriteString()
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// DynamicXMI is the paper's Figure 5 model (split, a dynamic-invocation
// worker state, join) as transform.ToXMI exports it — the benchmark's XMI
// body.
func DynamicXMI(tb testing.TB) string {
	tags := func(class string) core.TaggedValues {
		return core.TaskTags(strings.ToLower(class)+".jar", class, 500, task.RunAsThreadInTM.String())
	}
	g, err := core.NewBuilder("dyn").
		Initial("initial").
		Action("split", tags("Split")).
		DynamicAction("worker", tags("Worker"), "*", "rows").
		Action("join", tags("Join")).
		Final("final").
		Flows("initial", "split", "worker", "join", "final").
		Build()
	return writeXMI(tb, "Dyn", g, err)
}

// ExplicitXMI is the paper's Figure 3 model: transitive closure with five
// explicit workers between a fork and a join.
func ExplicitXMI(tb testing.TB) string {
	tags := func(jar, class string) core.TaggedValues {
		return core.TaskTags(jar, class, 1000, task.RunAsThreadInTM.String())
	}
	g, err := core.SplitWorkerJoin("transclosure",
		tags("tasksplit.jar", "org.jhpc.cn2.transcloser.TaskSplit"),
		tags("taskjoin.jar", "org.jhpc.cn2.transcloser.TaskJoin"),
		"tctask", tags("tctask.jar", "org.jhpc.cn2.trnsclsrtask.TCTask"), 5)
	if err == nil {
		g.Node("split").Tagged.SetParam(0, "String", "matrix.txt")
		g.Node("join").Tagged.SetParam(0, "String", "matrix.txt")
	}
	return writeXMI(tb, "TransClosure", g, err)
}

// Written returns the documents this repository's writers produce: the
// Figure 3 and Figure 5 models as XMI, the CNX descriptors they lower to (the
// dynamic one at 4, 8 and 16 invocations), and the benchmark's body shapes.
func Written(tb testing.TB) (cnxDocs, xmiDocs []string) {
	tb.Helper()
	explicit, dynamic := ExplicitXMI(tb), DynamicXMI(tb)
	xmiDocs = []string{explicit, dynamic}
	lower := func(xmiText string, opts transform.Options) {
		s, err := transform.XMI2CNXString(xmiText, opts)
		if err != nil {
			tb.Fatal(err)
		}
		cnxDocs = append(cnxDocs, s)
	}
	lower(explicit, transform.Options{Port: 5666, Log: "client.log"})
	for _, n := range []int{4, 8, 16} {
		lower(dynamic, transform.Options{Args: core.FixedArgs(n)})
	}
	cnxDocs = append(cnxDocs, FanCNX(tb, 32), FanCNX(tb, 64), ChainCNX(tb, 4))
	return cnxDocs, xmiDocs
}
