// Package transform implements the paper's model transformations:
//
//	XMI document  ──FromXMI──▶  core model  ──ModelToCNX──▶  CNX descriptor
//	XMI document  ◀──ToXMI───  core model  ◀──CNXToModel──  CNX descriptor
//
// XMI2CNX composes the forward direction and is the Go equivalent of the
// paper's XMI2CNX XSLT ("an XSLT that translates UML model in XMI format to
// CNX"). The reverse mappings allow CNX descriptors to be lifted back into
// models for visualization and testing.
//
// Dynamic invocation states (Figure 5) are expanded during ModelToCNX using
// a core.ArgProvider, since a CNX descriptor enumerates concrete tasks.
package transform

import (
	"fmt"
	"io"
	"sort"

	"cn/internal/cnx"
	"cn/internal/core"
	"cn/internal/xmi"
)

// FromXMI converts a parsed XMI document into a core client model: every
// activity graph becomes one job. The model name becomes the client name.
func FromXMI(doc *xmi.Document) (*core.Client, error) {
	if len(doc.Graphs) == 0 {
		return nil, fmt.Errorf("transform: XMI document contains no activity graphs")
	}
	name := doc.ModelName
	if name == "" {
		name = "Client"
	}
	client := core.NewClient(name)
	for _, ag := range doc.Graphs {
		g, err := graphFromXMI(doc, ag)
		if err != nil {
			return nil, err
		}
		if err := client.AddJob(g); err != nil {
			return nil, fmt.Errorf("transform: %w", err)
		}
	}
	return client, nil
}

func graphFromXMI(doc *xmi.Document, ag *xmi.ActivityGraph) (*core.Graph, error) {
	g := core.NewGraph(ag.Name)
	// Vertex names must be unique in the core model; fall back to the
	// xmi.id when a vertex is unnamed (pseudostates usually are).
	nameByID := make(map[string]string, len(ag.Vertices))
	used := make(map[string]bool, len(ag.Vertices))
	for i := range ag.Vertices {
		v := &ag.Vertices[i]
		name := v.Name
		if name == "" || used[name] {
			name = v.ID
		}
		if used[name] {
			return nil, fmt.Errorf("transform: graph %q: vertex name %q not unique", ag.Name, name)
		}
		used[name] = true
		nameByID[v.ID] = name

		node := &core.Node{Name: name}
		switch v.Kind {
		case xmi.VertexInitial:
			node.Kind = core.KindInitial
		case xmi.VertexFinal:
			node.Kind = core.KindFinal
		case xmi.VertexFork:
			node.Kind = core.KindFork
		case xmi.VertexJoin:
			node.Kind = core.KindJoin
		case xmi.VertexAction:
			node.Kind = core.KindAction
			node.Dynamic = v.Dynamic
			node.Multiplicity = v.Multiplicity
			node.ArgExpr = v.ArgExpr
			if len(v.Tagged) > 0 {
				node.Tagged = make(core.TaggedValues, len(v.Tagged))
				for _, tv := range v.Tagged {
					tagName := doc.TagDefByID(tv.TagDefID)
					if tagName == "" {
						return nil, fmt.Errorf("transform: graph %q: vertex %q references unknown tag definition %q",
							ag.Name, name, tv.TagDefID)
					}
					node.Tagged[tagName] = tv.Value
				}
			}
		default:
			return nil, fmt.Errorf("transform: graph %q: vertex %q has unknown kind %q", ag.Name, name, v.Kind)
		}
		if err := g.AddNode(node); err != nil {
			return nil, fmt.Errorf("transform: %w", err)
		}
	}
	for _, tr := range ag.Transitions {
		from, ok := nameByID[tr.SourceID]
		if !ok {
			return nil, fmt.Errorf("transform: graph %q: transition %q source %q unknown", ag.Name, tr.ID, tr.SourceID)
		}
		to, ok := nameByID[tr.TargetID]
		if !ok {
			return nil, fmt.Errorf("transform: graph %q: transition %q target %q unknown", ag.Name, tr.ID, tr.TargetID)
		}
		if err := g.AddGuardedTransition(from, to, tr.Guard); err != nil {
			return nil, fmt.Errorf("transform: %w", err)
		}
	}
	return g, nil
}

// ToXMI converts a core client model into an XMI document, allocating tool
// style sequential ids and one TagDefinition per distinct tag name.
func ToXMI(client *core.Client) (*xmi.Document, error) {
	if err := client.Validate(); err != nil {
		return nil, fmt.Errorf("transform: to XMI: %w", err)
	}
	ids := xmi.NewIDAllocator("a")
	doc := &xmi.Document{ModelID: ids.Next(), ModelName: client.Name}

	// Collect all tag names across all jobs for stable TagDefinitions.
	tagNames := map[string]bool{}
	for _, job := range client.Jobs {
		for _, n := range job.ActionStates() {
			for k := range n.Tagged {
				tagNames[k] = true
			}
		}
	}
	sorted := make([]string, 0, len(tagNames))
	for k := range tagNames {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	tagID := make(map[string]string, len(sorted))
	for _, name := range sorted {
		id := ids.Next()
		tagID[name] = id
		doc.TagDefs = append(doc.TagDefs, xmi.TagDef{ID: id, Name: name})
	}

	for _, job := range client.Jobs {
		ag := &xmi.ActivityGraph{ID: ids.Next(), Name: job.Name}
		vertexID := make(map[string]string)
		for _, n := range job.Nodes() {
			v := xmi.Vertex{ID: ids.Next(), Name: n.Name}
			vertexID[n.Name] = v.ID
			switch n.Kind {
			case core.KindInitial:
				v.Kind = xmi.VertexInitial
				v.Name = "" // pseudostates are conventionally unnamed
			case core.KindFinal:
				v.Kind = xmi.VertexFinal
				v.Name = ""
			case core.KindFork:
				v.Kind = xmi.VertexFork
				v.Name = ""
			case core.KindJoin:
				v.Kind = xmi.VertexJoin
				v.Name = ""
			case core.KindAction:
				v.Kind = xmi.VertexAction
				v.Dynamic = n.Dynamic
				v.Multiplicity = n.Multiplicity
				v.ArgExpr = n.ArgExpr
				for _, tag := range n.Tagged.Keys() {
					v.Tagged = append(v.Tagged, xmi.TaggedValue{
						ID:       ids.Next(),
						TagDefID: tagID[tag],
						Value:    n.Tagged[tag],
					})
				}
			}
			ag.Vertices = append(ag.Vertices, v)
		}
		for _, tr := range job.Transitions() {
			ag.Transitions = append(ag.Transitions, xmi.Transition{
				ID:       ids.Next(),
				SourceID: vertexID[tr.From],
				TargetID: vertexID[tr.To],
				Guard:    tr.Guard,
			})
		}
		doc.Graphs = append(doc.Graphs, ag)
	}
	return doc, nil
}

// Options configures the model-to-CNX transformation.
type Options struct {
	// Args supplies run-time argument lists for dynamic invocation states.
	// Nil is fine for models without dynamic states.
	Args core.ArgProvider
	// Log and Port populate the CNX client attributes.
	Log  string
	Port int
}

// ModelToCNX lowers a core client model to a CNX descriptor: each job's
// action states become <task> elements whose depends attribute is the
// pseudostate-collapsed dependency list; dynamic states are expanded first.
func ModelToCNX(client *core.Client, opts Options) (*cnx.Document, error) {
	if err := client.Validate(); err != nil {
		return nil, fmt.Errorf("transform: model to CNX: %w", err)
	}
	doc := &cnx.Document{Client: cnx.Client{
		Class: client.Name,
		Log:   opts.Log,
		Port:  opts.Port,
	}}
	for _, job := range client.Jobs {
		g := job
		if hasDynamic(g) {
			if opts.Args == nil {
				return nil, fmt.Errorf("transform: job %q has dynamic invocation states but no argument provider", job.Name)
			}
			expanded, err := core.ExpandDynamic(g, opts.Args)
			if err != nil {
				return nil, fmt.Errorf("transform: job %q: %w", job.Name, err)
			}
			g = expanded
		}
		deps, err := g.Dependencies()
		if err != nil {
			return nil, fmt.Errorf("transform: job %q: %w", job.Name, err)
		}
		order, err := g.TopoActionOrder()
		if err != nil {
			return nil, fmt.Errorf("transform: job %q: %w", job.Name, err)
		}
		cj := cnx.Job{Name: job.Name}
		for _, name := range order {
			spec, err := g.Node(name).TaskSpec(deps[name])
			if err != nil {
				return nil, fmt.Errorf("transform: job %q: %w", job.Name, err)
			}
			cj.Tasks = append(cj.Tasks, cnx.FromSpec(spec))
		}
		doc.Client.Jobs = append(doc.Client.Jobs, cj)
	}
	if err := doc.Validate(); err != nil {
		return nil, fmt.Errorf("transform: produced invalid CNX: %w", err)
	}
	return doc, nil
}

func hasDynamic(g *core.Graph) bool {
	for _, n := range g.ActionStates() {
		if n.Dynamic {
			return true
		}
	}
	return false
}

// CNXToModel lifts a CNX descriptor back into a core client model. The
// reconstructed graph uses direct action-to-action transitions (depends
// lists already encode the join semantics); an initial node feeds all root
// tasks and all leaf tasks flow into a final node.
func CNXToModel(doc *cnx.Document) (*core.Client, error) {
	if err := doc.Validate(); err != nil {
		return nil, fmt.Errorf("transform: CNX to model: %w", err)
	}
	client := core.NewClient(doc.Client.Class)
	client.Log = doc.Client.Log
	client.Port = doc.Client.Port
	for ji := range doc.Client.Jobs {
		job := &doc.Client.Jobs[ji]
		g := core.NewGraph(job.Name)
		if err := g.AddNode(&core.Node{Name: "__initial", Kind: core.KindInitial}); err != nil {
			return nil, err
		}
		for i := range job.Tasks {
			td := &job.Tasks[i]
			spec, err := td.Spec()
			if err != nil {
				return nil, fmt.Errorf("transform: %w", err)
			}
			tags := core.TaggedValues{
				core.TagClass:    spec.Class,
				core.TagMemory:   fmt.Sprintf("%d", spec.Req.MemoryMB),
				core.TagRunModel: spec.Req.RunModel.String(),
			}
			if spec.Archive != "" {
				tags[core.TagJar] = spec.Archive
			}
			for pi, p := range spec.Params {
				tags.SetParam(pi, string(p.Type), p.Value)
			}
			if err := g.AddNode(&core.Node{Name: td.Name, Kind: core.KindAction, Tagged: tags}); err != nil {
				return nil, err
			}
		}
		if err := g.AddNode(&core.Node{Name: "__final", Kind: core.KindFinal}); err != nil {
			return nil, err
		}
		for _, root := range job.Roots() {
			if err := g.AddTransition("__initial", root); err != nil {
				return nil, err
			}
		}
		for i := range job.Tasks {
			td := &job.Tasks[i]
			for _, dep := range td.DependsList() {
				if err := g.AddTransition(dep, td.Name); err != nil {
					return nil, err
				}
			}
		}
		for _, leaf := range job.Leaves() {
			if err := g.AddTransition(leaf, "__final"); err != nil {
				return nil, err
			}
		}
		if err := g.Validate(); err != nil {
			return nil, fmt.Errorf("transform: reconstructed graph: %w", err)
		}
		if err := client.AddJob(g); err != nil {
			return nil, err
		}
	}
	return client, nil
}

// XMI2CNXDoc reads an XMI document and lowers it to the CNX descriptor it
// describes, as a document in memory: what a caller that goes on to run the
// descriptor wants, with no text to write and parse again.
func XMI2CNXDoc(r io.Reader, opts Options) (*cnx.Document, error) {
	doc, err := xmi.Parse(r)
	return lower(doc, err, opts)
}

// XMI2CNXBytes is XMI2CNXDoc for a model already held in memory.
func XMI2CNXBytes(src []byte, opts Options) (*cnx.Document, error) {
	doc, err := xmi.ParseBytes(src)
	return lower(doc, err, opts)
}

// lower takes a parsed model (or the error parsing it gave) to its CNX
// descriptor.
func lower(doc *xmi.Document, err error, opts Options) (*cnx.Document, error) {
	if err != nil {
		return nil, fmt.Errorf("transform: xmi2cnx: %w", err)
	}
	client, err := FromXMI(doc)
	if err != nil {
		return nil, fmt.Errorf("transform: xmi2cnx: %w", err)
	}
	cdoc, err := ModelToCNX(client, opts)
	if err != nil {
		return nil, fmt.Errorf("transform: xmi2cnx: %w", err)
	}
	return cdoc, nil
}

// XMI2CNX is the end-to-end transformation the paper names: it reads an XMI
// document and writes the corresponding CNX client descriptor.
func XMI2CNX(r io.Reader, w io.Writer, opts Options) error {
	cdoc, err := XMI2CNXDoc(r, opts)
	if err != nil {
		return err
	}
	if err := cdoc.Encode(w); err != nil {
		return fmt.Errorf("transform: xmi2cnx: %w", err)
	}
	return nil
}

// XMI2CNXString is XMI2CNX over strings, convenient for tools and tests.
func XMI2CNXString(in string, opts Options) (string, error) {
	cdoc, err := XMI2CNXBytes([]byte(in), opts)
	if err != nil {
		return "", err
	}
	out, err := cdoc.EncodeString()
	if err != nil {
		return "", fmt.Errorf("transform: xmi2cnx: %w", err)
	}
	return out, nil
}
