package xmi

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// esc XML-escapes an attribute value.
func esc(s string) string {
	var sb strings.Builder
	if err := xml.EscapeText(&sb, []byte(s)); err != nil {
		return s
	}
	return sb.String()
}

// Write renders the document as an XMI 1.2 file in the tool-export shape
// shown in the paper's Figure 7.
func (d *Document) Write(w io.Writer) error {
	if err := d.check(); err != nil {
		return err
	}
	var b strings.Builder
	b.WriteString(`<?xml version="1.0" encoding="UTF-8"?>` + "\n")
	b.WriteString(`<XMI xmi.version="1.2" xmlns:UML="org.omg.xmi.namespace.UML">` + "\n")
	b.WriteString("  <XMI.header>\n    <XMI.documentation>\n")
	b.WriteString("      <XMI.exporter>cn-go</XMI.exporter>\n")
	b.WriteString("    </XMI.documentation>\n  </XMI.header>\n")
	b.WriteString("  <XMI.content>\n")
	fmt.Fprintf(&b, "    <UML:Model xmi.id=%q name=%q isSpecification=\"false\">\n",
		esc(orDefault(d.ModelID, "m1")), esc(orDefault(d.ModelName, "model")))
	b.WriteString("      <UML:Namespace.ownedElement>\n")
	for _, td := range d.TagDefs {
		fmt.Fprintf(&b, "        <UML:TagDefinition xmi.id=%q name=%q isSpecification=\"false\"/>\n",
			esc(td.ID), esc(td.Name))
	}
	for _, g := range d.Graphs {
		fmt.Fprintf(&b, "        <UML:ActivityGraph xmi.id=%q name=%q isSpecification=\"false\">\n",
			esc(g.ID), esc(g.Name))
		b.WriteString("          <UML:StateMachine.top>\n")
		fmt.Fprintf(&b, "            <UML:CompositeState xmi.id=%q isConcurrent=\"false\">\n", esc(g.ID+".top"))
		b.WriteString("              <UML:CompositeState.subvertex>\n")
		for i := range g.Vertices {
			writeVertex(&b, &g.Vertices[i])
		}
		b.WriteString("              </UML:CompositeState.subvertex>\n")
		b.WriteString("            </UML:CompositeState>\n")
		b.WriteString("          </UML:StateMachine.top>\n")
		b.WriteString("          <UML:StateMachine.transitions>\n")
		for _, tr := range g.Transitions {
			src := g.Vertex(tr.SourceID)
			dst := g.Vertex(tr.TargetID)
			fmt.Fprintf(&b, "            <UML:Transition xmi.id=%q isSpecification=\"false\">\n", esc(tr.ID))
			if tr.Guard != "" {
				fmt.Fprintf(&b, "              <UML:Transition.guard><UML:Guard name=%q/></UML:Transition.guard>\n", esc(tr.Guard))
			}
			fmt.Fprintf(&b, "              <UML:Transition.source><UML:%s xmi.idref=%q/></UML:Transition.source>\n",
				elementFor(src), esc(tr.SourceID))
			fmt.Fprintf(&b, "              <UML:Transition.target><UML:%s xmi.idref=%q/></UML:Transition.target>\n",
				elementFor(dst), esc(tr.TargetID))
			b.WriteString("            </UML:Transition>\n")
		}
		b.WriteString("          </UML:StateMachine.transitions>\n")
		b.WriteString("        </UML:ActivityGraph>\n")
	}
	b.WriteString("      </UML:Namespace.ownedElement>\n")
	b.WriteString("    </UML:Model>\n")
	b.WriteString("  </XMI.content>\n")
	b.WriteString("</XMI>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func writeVertex(b *strings.Builder, v *Vertex) {
	switch v.Kind {
	case VertexInitial, VertexFork, VertexJoin:
		fmt.Fprintf(b, "                <UML:Pseudostate xmi.id=%q name=%q kind=%q isSpecification=\"false\"/>\n",
			esc(v.ID), esc(v.Name), v.Kind)
	case VertexFinal:
		fmt.Fprintf(b, "                <UML:FinalState xmi.id=%q name=%q isSpecification=\"false\"/>\n",
			esc(v.ID), esc(v.Name))
	case VertexAction:
		fmt.Fprintf(b, "                <UML:ActionState xmi.id=%q name=%q isSpecification=\"false\" isDynamic=%q",
			esc(v.ID), esc(v.Name), boolStr(v.Dynamic))
		if v.Multiplicity != "" {
			fmt.Fprintf(b, " dynamicMultiplicity=%q", esc(v.Multiplicity))
		}
		if v.ArgExpr != "" {
			fmt.Fprintf(b, " dynamicArguments=%q", esc(v.ArgExpr))
		}
		if len(v.Tagged) == 0 {
			b.WriteString("/>\n")
			return
		}
		b.WriteString(">\n")
		b.WriteString("                  <UML:ModelElement.taggedValue>\n")
		for _, tv := range v.Tagged {
			fmt.Fprintf(b, "                    <UML:TaggedValue xmi.id=%q isSpecification=\"false\" dataValue=%q>\n",
				esc(tv.ID), esc(tv.Value))
			b.WriteString("                      <UML:TaggedValue.type>\n")
			fmt.Fprintf(b, "                        <UML:TagDefinition xmi.idref=%q/>\n", esc(tv.TagDefID))
			b.WriteString("                      </UML:TaggedValue.type>\n")
			b.WriteString("                    </UML:TaggedValue>\n")
		}
		b.WriteString("                  </UML:ModelElement.taggedValue>\n")
		b.WriteString("                </UML:ActionState>\n")
	}
}

func elementFor(v *Vertex) string {
	if v == nil {
		return "StateVertex"
	}
	switch v.Kind {
	case VertexAction:
		return "ActionState"
	case VertexFinal:
		return "FinalState"
	default:
		return "Pseudostate"
	}
}

func boolStr(b bool) string {
	if b {
		return "true"
	}
	return "false"
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// WriteString renders the document to a string.
func (d *Document) WriteString() (string, error) {
	var sb strings.Builder
	if err := d.Write(&sb); err != nil {
		return "", err
	}
	return sb.String(), nil
}
