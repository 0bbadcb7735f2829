package xmi_test

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"cn/internal/xmi"
	"cn/internal/xmlscan"
	"cn/internal/xmlscan/scantest"
)

// oracleParse is Parse as it was over encoding/xml's token stream: the same
// switch, kept as the reference ParseBytes is held to.
func oracleParse(src []byte) (*xmi.Document, error) {
	attr := func(se xml.StartElement, name string) string {
		for _, a := range se.Attr {
			if a.Name.Local == name {
				return a.Value
			}
		}
		return ""
	}
	endpoint := func(tr *xmi.Transition, parent, idref string) {
		switch parent {
		case "Transition.source":
			tr.SourceID = idref
		case "Transition.target":
			tr.TargetID = idref
		}
	}
	dec := xml.NewDecoder(strings.NewReader(string(src)))
	doc := &xmi.Document{}
	var (
		curGraph  *xmi.ActivityGraph
		curVertex *xmi.Vertex
		curTV     *xmi.TaggedValue
		curTrans  *xmi.Transition
		stack     []string
	)
	parent := func() string {
		if len(stack) == 0 {
			return ""
		}
		return stack[len(stack)-1]
	}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			local := t.Name.Local
			switch local {
			case "Model":
				doc.ModelID = attr(t, "xmi.id")
				doc.ModelName = attr(t, "name")
			case "TagDefinition":
				if id := attr(t, "xmi.id"); id != "" {
					doc.TagDefs = append(doc.TagDefs, xmi.TagDef{ID: id, Name: attr(t, "name")})
				} else if curTV != nil && parent() == "TaggedValue.type" {
					curTV.TagDefID = attr(t, "xmi.idref")
				}
			case "ActivityGraph":
				curGraph = &xmi.ActivityGraph{ID: attr(t, "xmi.id"), Name: attr(t, "name")}
				doc.Graphs = append(doc.Graphs, curGraph)
			case "Pseudostate":
				if curGraph != nil && attr(t, "xmi.id") != "" {
					kind := attr(t, "kind")
					if kind != xmi.VertexInitial && kind != xmi.VertexFork && kind != xmi.VertexJoin {
						return nil, fmt.Errorf("unsupported pseudostate kind %q", kind)
					}
					curGraph.Vertices = append(curGraph.Vertices, xmi.Vertex{ID: attr(t, "xmi.id"), Name: attr(t, "name"), Kind: kind})
				} else if curTrans != nil {
					endpoint(curTrans, parent(), attr(t, "xmi.idref"))
				}
			case "FinalState":
				if curGraph != nil && attr(t, "xmi.id") != "" {
					curGraph.Vertices = append(curGraph.Vertices, xmi.Vertex{ID: attr(t, "xmi.id"), Name: attr(t, "name"), Kind: xmi.VertexFinal})
				} else if curTrans != nil {
					endpoint(curTrans, parent(), attr(t, "xmi.idref"))
				}
			case "ActionState":
				if curGraph != nil && attr(t, "xmi.id") != "" {
					curGraph.Vertices = append(curGraph.Vertices, xmi.Vertex{
						ID:           attr(t, "xmi.id"),
						Name:         attr(t, "name"),
						Kind:         xmi.VertexAction,
						Dynamic:      attr(t, "isDynamic") == "true",
						Multiplicity: attr(t, "dynamicMultiplicity"),
						ArgExpr:      attr(t, "dynamicArguments"),
					})
					curVertex = &curGraph.Vertices[len(curGraph.Vertices)-1]
				} else if curTrans != nil {
					endpoint(curTrans, parent(), attr(t, "xmi.idref"))
				}
			case "TaggedValue":
				if curVertex != nil {
					curVertex.Tagged = append(curVertex.Tagged, xmi.TaggedValue{ID: attr(t, "xmi.id"), Value: attr(t, "dataValue")})
					curTV = &curVertex.Tagged[len(curVertex.Tagged)-1]
				}
			case "Transition":
				if curGraph != nil && attr(t, "xmi.id") != "" && parent() == "StateMachine.transitions" {
					curGraph.Transitions = append(curGraph.Transitions, xmi.Transition{ID: attr(t, "xmi.id")})
					curTrans = &curGraph.Transitions[len(curGraph.Transitions)-1]
				}
			case "Guard":
				if curTrans != nil {
					curTrans.Guard = attr(t, "name")
				}
			}
			stack = append(stack, local)
		case xml.EndElement:
			if len(stack) > 0 {
				stack = stack[:len(stack)-1]
			}
			switch t.Name.Local {
			case "ActionState":
				if curVertex != nil && parent() != "Transition.source" && parent() != "Transition.target" {
					curVertex = nil
				}
			case "TaggedValue":
				curTV = nil
			case "Transition":
				if parent() == "StateMachine.transitions" || parent() == "" {
					curTrans = nil
				}
			case "ActivityGraph":
				curGraph = nil
			}
		}
	}
	if err := doc.Check(); err != nil {
		return nil, err
	}
	return doc, nil
}

// inModel wraps a fragment in the document around a model's owned elements.
func inModel(fragment string) string {
	return `<XMI xmi.version="1.2" xmlns:UML="org.omg.xmi.namespace.UML"><XMI.content><UML:Model xmi.id="m" name="M"><UML:Namespace.ownedElement>` +
		fragment + `</UML:Namespace.ownedElement></UML:Model></XMI.content></XMI>`
}

// inGraph wraps vertices and transitions in one activity graph.
func inGraph(vertices, transitions string) string {
	return inModel(`<UML:TagDefinition xmi.id="td" name="class"/><UML:ActivityGraph xmi.id="g" name="G"><UML:StateMachine.top><UML:CompositeState xmi.id="c"><UML:CompositeState.subvertex>` +
		vertices + `</UML:CompositeState.subvertex></UML:CompositeState></UML:StateMachine.top><UML:StateMachine.transitions>` +
		transitions + `</UML:StateMachine.transitions></UML:ActivityGraph>`)
}

// xmiCases are how the reader's switch treats input no exporter writes:
// attributes matched by local name (the first one wins), declarations told
// from references by xmi.id, context read from the enclosing element.
var xmiCases = []string{
	inGraph(`<UML:ActionState xmi.id="a" xmi.id="b" name="A" x:name="B" xmlns:name="C"/>`, ``),
	inGraph(`<ActionState x:xmi.id="a" name="unprefixed"/><z:FinalState xmi.id="f"/>`, ``),
	inGraph(`<UML:ActionState xmi.id="a" name="A" isDynamic="true" dynamicMultiplicity="*" dynamicArguments="rows &amp; cols"/><UML:ActionState xmi.id="b" isDynamic="TRUE"/>`, ``),
	inGraph(`<UML:Pseudostate xmi.id="p" kind="initial"/><UML:Pseudostate xmi.id="q" kind="fork"/><UML:Pseudostate xmi.id="r" kind="join"/>`, ``),
	inGraph(`<UML:Pseudostate xmi.id="p" kind="history"/>`, ``),
	inGraph(`<UML:Pseudostate xmi.id="p"/>`, ``),
	inGraph(`<UML:Pseudostate kind="history"/>`, ``),
	inGraph(`<UML:ActionState xmi.id="a" name="A"><UML:ModelElement.taggedValue><UML:TaggedValue xmi.id="tv" dataValue="x&#10;y"><UML:TaggedValue.type><UML:TagDefinition xmi.idref="td"/></UML:TaggedValue.type></UML:TaggedValue></UML:ModelElement.taggedValue></UML:ActionState>`, ``),
	inGraph(`<UML:ActionState xmi.id="a"><UML:TaggedValue dataValue="v"><UML:TagDefinition xmi.idref="td"/></UML:TaggedValue></UML:ActionState>`, ``),
	inGraph(`<UML:ActionState xmi.id="a"><UML:TaggedValue dataValue="v"><UML:TaggedValue.type><UML:TagDefinition xmi.idref="nope"/></UML:TaggedValue.type></UML:TaggedValue></UML:ActionState>`, ``),
	inGraph(`<UML:TaggedValue dataValue="outside any vertex"/><UML:ActionState xmi.id="a"/><UML:TaggedValue dataValue="after the vertex closed"/>`, ``),
	inGraph(`<UML:ActionState xmi.id="a"/><UML:FinalState xmi.id="f"/>`,
		`<UML:Transition xmi.id="t"><UML:Transition.guard><UML:Guard name="ok"/></UML:Transition.guard><UML:Transition.source><UML:ActionState xmi.idref="a"/></UML:Transition.source><UML:Transition.target><UML:FinalState xmi.idref="f"/></UML:Transition.target></UML:Transition>`),
	inGraph(`<UML:ActionState xmi.id="a"/><UML:Pseudostate xmi.id="p" kind="join"/>`,
		`<UML:Transition xmi.id="t"><UML:Transition.source><UML:Pseudostate xmi.idref="p" kind="bogus"/></UML:Transition.source><UML:Transition.target><UML:ActionState xmi.idref="a"><UML:TaggedValue dataValue="in a reference"/></UML:ActionState></UML:Transition.target></UML:Transition>`),
	inGraph(`<UML:ActionState xmi.id="a"><UML:StateVertex.outgoing><UML:Transition xmi.idref="t"/><UML:Transition xmi.id="inner"/></UML:StateVertex.outgoing></UML:ActionState>`,
		`<UML:Transition xmi.id="t"><UML:Transition.source><UML:ActionState xmi.idref="a"/></UML:Transition.source><UML:Transition.target><UML:ActionState xmi.idref="ghost"/></UML:Transition.target></UML:Transition>`),
	inGraph(`<UML:ActionState xmi.id="a"/>`, `<UML:Transition xmi.id="t"><UML:ActionState xmi.idref="a"/></UML:Transition><UML:Guard name="after"/>`),
	inGraph(`<UML:ActionState xmi.id="a"/><UML:ActionState xmi.id="a"/>`, ``),
	inModel(`<UML:TagDefinition xmi.id="td" name="n"/><UML:TagDefinition xmi.id="td" name="dup"/>`),
	inModel(`<UML:TagDefinition name="no id"/><UML:ActivityGraph/><UML:ActivityGraph xmi.id="g2" name="two"/>`),
	inModel(`<UML:ActivityGraph xmi.id="g"><UML:ActivityGraph xmi.id="nested"><UML:ActionState xmi.id="a"/></UML:ActivityGraph><UML:ActionState xmi.id="orphan"/></UML:ActivityGraph>`),
	`<UML:ActionState xmi.id="outside a graph"/>`,
	`<UML:Model xmi.id="m1" name="first"/><UML:Model xmi.id="m2" name="second"/>`,
	`<XMI/>`, `<XMI></XMI>trailing`, `<XMI/><<<`, `<XMI><unclosed>`, `<XMI/><XMI/>`, `</UML:Transition>`,
}

func corpus(tb testing.TB) []string {
	cnxDocs, written := scantest.Written(tb)
	docs := append(written, cnxDocs...)
	docs = append(docs, xmiCases...)
	docs = append(docs, scantest.Literals(tb)...)
	for _, c := range scantest.Cases {
		docs = append(docs, c, inModel(c), inGraph(c, c))
	}
	return docs
}

// sameAsOracle is the contract: for any input the reader and the oracle both
// fail, or return the same document. The one refusal the reader adds is a
// non-ASCII name.
func sameAsOracle(src []byte) error {
	want, wantErr := oracleParse(src)
	got, err := xmi.ParseBytes(src)
	if both, divergence := scantest.SameVerdict(wantErr, err); !both {
		return divergence
	}
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
		if _, err := xmi.ParseString(doc); err == nil {
			accepted++
		}
	}
	if accepted < 60 {
		t.Errorf("only %d corpus documents parse; the corpus should hold the repository's fixtures", accepted)
	}
}

func FuzzXMIReaderMatchesXML(f *testing.F) {
	for _, doc := range corpus(f) {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		if err := sameAsOracle(src); err != nil {
			t.Fatal(err)
		}
	})
}

// TestWritersStillParse: nothing Document.Write produces may be refused, and
// it reads back as what was written.
func TestWritersStillParse(t *testing.T) {
	_, written := scantest.Written(t)
	for _, text := range written {
		doc, err := xmi.ParseString(text)
		if err != nil {
			t.Fatalf("%v\n%s", err, text)
		}
		again, err := doc.WriteString()
		if err != nil || again != text {
			t.Errorf("re-written text differs (err %v):\n%s\nwant\n%s", err, again, text)
		}
	}
}

func TestNonASCIINameRefused(t *testing.T) {
	src := inModel("<UML:État/>")
	if _, err := oracleParse([]byte(src)); err != nil {
		t.Fatalf("the encoding/xml reader refuses %q: %v", src, err)
	}
	if _, err := xmi.ParseString(src); !errors.Is(err, xmlscan.ErrNonASCIIName) {
		t.Errorf("ParseString = %v, want ErrNonASCIIName", err)
	}
	doc, err := xmi.ParseString(inGraph(`<UML:ActionState xmi.id="a" name="État"/>`, ``))
	if err != nil || doc.Graphs[0].Vertices[0].Name != "État" {
		t.Errorf("non-ASCII value: %+v, %v", doc, err)
	}
}

func TestParseErrorNamesLine(t *testing.T) {
	_, err := xmi.ParseString("<XMI>\n<XMI.content>\n</XMI>")
	var se *xmlscan.Error
	if !errors.As(err, &se) || se.Line != 3 {
		t.Errorf("error = %v, want a syntax error at line 3", err)
	}
}

func TestDocumentOwnsItsStrings(t *testing.T) {
	_, written := scantest.Written(t)
	for _, text := range append(written, xmiCases...) {
		src := []byte(text)
		doc, err := xmi.ParseBytes(src)
		if err != nil {
			continue
		}
		if p := scantest.PointsInto(doc, src); p != "" {
			t.Errorf("%s points into the input\n%s", p, text)
		}
	}
}

// TestParseAllocs: the dynamic model the benchmark submits is read in 104
// allocations — its strings, vertices and transitions — where the
// encoding/xml token stream cost 936. The guard allows a quarter more.
func TestParseAllocs(t *testing.T) {
	src := []byte(scantest.DynamicXMI(t))
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := xmi.ParseBytes(src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 130 {
		t.Errorf("ParseBytes of the dynamic model: %.0f allocations, want <= 130", allocs)
	}
}

var sink any

func BenchmarkParseXMI(b *testing.B) {
	src := []byte(scantest.DynamicXMI(b))
	for name, parse := range map[string]func([]byte) (*xmi.Document, error){"scanner": xmi.ParseBytes, "oracle": oracleParse} {
		b.Run("dynamic/"+name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				doc, err := parse(src)
				if err != nil {
					b.Fatal(err)
				}
				sink = doc
			}
		})
	}
}
