// Package xmi reads and writes UML 1.4 activity graphs in XMI 1.2, "an
// XML-based external representation of UML models" (paper §1, Figure 7).
// It supports exactly the subset the CN pipeline needs: a model owning tag
// definitions and activity graphs, whose composite state contains
// pseudostates (initial/fork/join), action states with tagged values and
// dynamic-invocation attributes, final states, and transitions.
//
// The writer produces documents in the same shape modeling tools of the
// paper's era exported (UML: namespace prefix, xmi.id/xmi.idref linkage,
// TaggedValue.type references to TagDefinition elements), so parser and
// writer round-trip and golden tests can compare against the paper's
// Figure 7 fragment.
package xmi

import (
	"fmt"
	"io"
	"sort"

	"cn/internal/xmlscan"
)

// Vertex kinds in an activity graph.
const (
	VertexInitial = "initial"
	VertexFork    = "fork"
	VertexJoin    = "join"
	VertexFinal   = "final"
	VertexAction  = "action"
)

// TagDef is a UML TagDefinition: the declaration a TaggedValue references
// by xmi.idref.
type TagDef struct {
	ID   string
	Name string
}

// TaggedValue is one tagged value on an action state: a dataValue plus the
// referenced tag definition id.
type TaggedValue struct {
	ID       string
	TagDefID string
	Value    string
}

// Vertex is one state-machine vertex.
type Vertex struct {
	ID   string
	Name string
	Kind string // one of the Vertex* constants
	// Dynamic invocation attributes (action states only).
	Dynamic      bool
	Multiplicity string // UML dynamicMultiplicity
	ArgExpr      string // UML dynamicArguments
	Tagged       []TaggedValue
}

// Transition is a directed edge between vertices, by xmi.id reference.
type Transition struct {
	ID       string
	SourceID string
	TargetID string
	Guard    string
}

// ActivityGraph is one UML activity graph (one CN job).
type ActivityGraph struct {
	ID          string
	Name        string
	Vertices    []Vertex
	Transitions []Transition
}

// Vertex returns the vertex with the given id, or nil.
func (g *ActivityGraph) Vertex(id string) *Vertex {
	for i := range g.Vertices {
		if g.Vertices[i].ID == id {
			return &g.Vertices[i]
		}
	}
	return nil
}

// Document is a parsed XMI file: one UML model with its tag definitions and
// activity graphs.
type Document struct {
	ModelID   string
	ModelName string
	TagDefs   []TagDef
	Graphs    []*ActivityGraph
}

// TagDefByID resolves a tag definition id to its name, or "".
func (d *Document) TagDefByID(id string) string {
	for _, td := range d.TagDefs {
		if td.ID == id {
			return td.Name
		}
	}
	return ""
}

// TagDefByName resolves a tag name to its id, or "".
func (d *Document) TagDefByName(name string) string {
	for _, td := range d.TagDefs {
		if td.Name == name {
			return td.ID
		}
	}
	return ""
}

// Graph returns the named activity graph, or nil.
func (d *Document) Graph(name string) *ActivityGraph {
	for _, g := range d.Graphs {
		if g.Name == name {
			return g
		}
	}
	return nil
}

// Parse decodes an XMI document.
func Parse(r io.Reader) (*Document, error) {
	src, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("xmi: parse: %w", err)
	}
	return ParseBytes(src)
}

// ParseString decodes an XMI document from a string.
func ParseString(s string) (*Document, error) { return ParseBytes([]byte(s)) }

// ParseBytes decodes an XMI document held in memory. Elements and attributes
// are matched by local name (namespace-insensitive, matching how UML:
// prefixes and xmi.id / xmi.idref attributes appear). The document owns its
// strings: none of them points into src.
func ParseBytes(src []byte) (*Document, error) {
	sc := xmlscan.New(src)
	doc := &Document{}
	var (
		curGraph  *ActivityGraph
		curVertex *Vertex
		curTV     *TaggedValue
		curTrans  *Transition
	)
	attr := func(name string) string { return string(sc.Attr(name)) }
	// vertex appends a declared vertex (one with an xmi.id inside a graph);
	// otherwise the element is a reference, which inside a transition's
	// source or target names that endpoint.
	vertex := func(kind string) *Vertex {
		if curGraph != nil && len(sc.Attr("xmi.id")) > 0 {
			curGraph.Vertices = append(curGraph.Vertices, Vertex{ID: attr("xmi.id"), Name: attr("name"), Kind: kind})
			return &curGraph.Vertices[len(curGraph.Vertices)-1]
		}
		if curTrans != nil {
			switch string(sc.Parent()) {
			case "Transition.source":
				curTrans.SourceID = attr("xmi.idref")
			case "Transition.target":
				curTrans.TargetID = attr("xmi.idref")
			}
		}
		return nil
	}

	for {
		kind, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmi: parse: %w", err)
		}
		switch kind {
		case xmlscan.Start:
			switch string(sc.Name()) {
			case "Model":
				doc.ModelID = attr("xmi.id")
				doc.ModelName = attr("name")
			case "TagDefinition":
				// Only definitions (with xmi.id) declare tags; references
				// inside TaggedValue.type carry xmi.idref.
				if len(sc.Attr("xmi.id")) > 0 {
					doc.TagDefs = append(doc.TagDefs, TagDef{ID: attr("xmi.id"), Name: attr("name")})
				} else if curTV != nil && string(sc.Parent()) == "TaggedValue.type" {
					curTV.TagDefID = attr("xmi.idref")
				}
			case "ActivityGraph":
				curGraph = &ActivityGraph{ID: attr("xmi.id"), Name: attr("name")}
				doc.Graphs = append(doc.Graphs, curGraph)
			case "Pseudostate":
				var kind string
				switch string(sc.Attr("kind")) {
				case VertexInitial:
					kind = VertexInitial
				case VertexFork:
					kind = VertexFork
				case VertexJoin:
					kind = VertexJoin
				}
				if v := vertex(kind); v != nil && kind == "" {
					return nil, fmt.Errorf("xmi: parse: unsupported pseudostate kind %q", sc.Attr("kind"))
				}
			case "FinalState":
				vertex(VertexFinal)
			case "ActionState":
				if v := vertex(VertexAction); v != nil {
					v.Dynamic = string(sc.Attr("isDynamic")) == "true"
					v.Multiplicity = attr("dynamicMultiplicity")
					v.ArgExpr = attr("dynamicArguments")
					curVertex = v
				}
			case "TaggedValue":
				if curVertex != nil {
					curVertex.Tagged = append(curVertex.Tagged, TaggedValue{ID: attr("xmi.id"), Value: attr("dataValue")})
					curTV = &curVertex.Tagged[len(curVertex.Tagged)-1]
				}
			case "Transition":
				if curGraph != nil && len(sc.Attr("xmi.id")) > 0 && string(sc.Parent()) == "StateMachine.transitions" {
					curGraph.Transitions = append(curGraph.Transitions, Transition{ID: attr("xmi.id")})
					curTrans = &curGraph.Transitions[len(curGraph.Transitions)-1]
				}
				// Transition references inside StateVertex.outgoing/incoming
				// are redundant with the transitions list; ignored.
			case "Guard":
				if curTrans != nil {
					curTrans.Guard = attr("name")
				}
			}
		case xmlscan.End:
			parent := sc.Parent()
			switch string(sc.Name()) {
			case "ActionState":
				if curVertex != nil && string(parent) != "Transition.source" && string(parent) != "Transition.target" {
					curVertex = nil
				}
			case "TaggedValue":
				curTV = nil
			case "Transition":
				if string(parent) == "StateMachine.transitions" || parent == nil {
					curTrans = nil
				}
			case "ActivityGraph":
				curGraph = nil
			}
		}
	}
	if err := doc.check(); err != nil {
		return nil, err
	}
	return doc, nil
}

// check verifies referential integrity: transitions reference existing
// vertices, tagged values reference declared tag definitions.
func (d *Document) check() error {
	tagIDs := make(map[string]bool, len(d.TagDefs))
	for _, td := range d.TagDefs {
		if td.ID == "" {
			return fmt.Errorf("xmi: tag definition %q missing xmi.id", td.Name)
		}
		if tagIDs[td.ID] {
			return fmt.Errorf("xmi: duplicate tag definition id %q", td.ID)
		}
		tagIDs[td.ID] = true
	}
	for _, g := range d.Graphs {
		ids := make(map[string]bool, len(g.Vertices))
		for _, v := range g.Vertices {
			if v.ID == "" {
				return fmt.Errorf("xmi: graph %q: vertex %q missing xmi.id", g.Name, v.Name)
			}
			if ids[v.ID] {
				return fmt.Errorf("xmi: graph %q: duplicate vertex id %q", g.Name, v.ID)
			}
			ids[v.ID] = true
			for _, tv := range v.Tagged {
				if !tagIDs[tv.TagDefID] {
					return fmt.Errorf("xmi: graph %q: vertex %q tagged value references unknown tag definition %q", g.Name, v.Name, tv.TagDefID)
				}
			}
		}
		for _, tr := range g.Transitions {
			if !ids[tr.SourceID] {
				return fmt.Errorf("xmi: graph %q: transition %q has unresolved source %q", g.Name, tr.ID, tr.SourceID)
			}
			if !ids[tr.TargetID] {
				return fmt.Errorf("xmi: graph %q: transition %q has unresolved target %q", g.Name, tr.ID, tr.TargetID)
			}
		}
	}
	return nil
}

// IDAllocator hands out sequential xmi.id values in the tool style ("a1",
// "a2", ...), used when fabricating documents programmatically.
type IDAllocator struct {
	prefix string
	next   int
}

// NewIDAllocator creates an allocator with the given prefix (default "a").
func NewIDAllocator(prefix string) *IDAllocator {
	if prefix == "" {
		prefix = "a"
	}
	return &IDAllocator{prefix: prefix, next: 1}
}

// Next returns the next id.
func (a *IDAllocator) Next() string {
	id := fmt.Sprintf("%s%d", a.prefix, a.next)
	a.next++
	return id
}

// SortTagDefs orders tag definitions by name for deterministic output.
func (d *Document) SortTagDefs() {
	sort.Slice(d.TagDefs, func(i, j int) bool { return d.TagDefs[i].Name < d.TagDefs[j].Name })
}
