// Package cnx implements CNX, the paper's XML compositional language:
// "CNX (XML) is a compositional language that captures the details of the
// client program." A CNX document (see the paper's Figure 2) declares a
// client, its jobs, and each job's tasks with their archives, classes,
// dependencies, resource requirements and typed parameters.
//
// The package provides the document model, its XML writer (this file,
// encoding/xml) and reader (read.go, over the pull scanner in
// cn/internal/xmlscan — a submission is read once, without reflection, and
// syntax errors name their line), semantic validation (unique names,
// resolvable dependencies, acyclicity), and the dependency DAG used by the
// JobManager to start tasks in order.
package cnx

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strings"

	"cn/internal/task"
)

// Document is the root of a CNX descriptor (<cn2> element).
type Document struct {
	XMLName xml.Name `xml:"cn2"`
	Client  Client   `xml:"client"`
}

// Client describes the client program composed of one or more jobs.
// Figure 2: <client class="TransClosure" log="..." port="5666">.
type Client struct {
	Class string `xml:"class,attr"`
	Log   string `xml:"log,attr,omitempty"`
	Port  int    `xml:"port,attr,omitempty"`
	Jobs  []Job  `xml:"job"`
}

// Job is a collection of tasks (paper: "A Job is defined as a collection of
// Task objects").
type Job struct {
	// Name is optional in the paper's examples; unnamed jobs are assigned
	// job0, job1, ... during validation.
	Name  string     `xml:"name,attr,omitempty"`
	Tasks []TaskDecl `xml:"task"`
}

// TaskDecl is one <task> element.
type TaskDecl struct {
	Name    string  `xml:"name,attr"`
	Jar     string  `xml:"jar,attr"`
	Class   string  `xml:"class,attr"`
	Depends string  `xml:"depends,attr"`
	Req     *ReqXML `xml:"task-req"`
	Params  []Param `xml:"param"`
}

// ReqXML is the <task-req> element.
type ReqXML struct {
	Memory   int    `xml:"memory"`
	RunModel string `xml:"runmodel"`
}

// Param is a <param type="T">value</param> element.
type Param struct {
	Type  string `xml:"type,attr"`
	Value string `xml:",chardata"`
}

// DependsList splits the comma-separated depends attribute, dropping empty
// entries (the paper writes depends="" for root tasks).
func (t *TaskDecl) DependsList() []string {
	if strings.TrimSpace(t.Depends) == "" {
		return nil
	}
	parts := strings.Split(t.Depends, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// Spec converts the declaration into the runtime task.Spec.
func (t *TaskDecl) Spec() (*task.Spec, error) {
	s := &task.Spec{
		Name:      t.Name,
		Archive:   t.Jar,
		Class:     t.Class,
		DependsOn: t.DependsList(),
		Req:       task.DefaultRequirements(),
	}
	if t.Req != nil {
		if t.Req.Memory != 0 {
			s.Req.MemoryMB = t.Req.Memory
		}
		if t.Req.RunModel != "" {
			rm, err := task.ParseRunModel(t.Req.RunModel)
			if err != nil {
				return nil, fmt.Errorf("cnx: task %q: %w", t.Name, err)
			}
			s.Req.RunModel = rm
		}
	}
	for i, p := range t.Params {
		tp, err := task.NewParam(p.Type, strings.TrimSpace(p.Value))
		if err != nil {
			return nil, fmt.Errorf("cnx: task %q param %d: %w", t.Name, i, err)
		}
		s.Params = append(s.Params, tp)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("cnx: %w", err)
	}
	return s, nil
}

// FromSpec converts a runtime spec back into a declaration (used by the
// model-to-CNX transform).
func FromSpec(s *task.Spec) TaskDecl {
	d := TaskDecl{
		Name:    s.Name,
		Jar:     s.Archive,
		Class:   s.Class,
		Depends: strings.Join(s.DependsOn, ","),
		Req: &ReqXML{
			Memory:   s.Req.MemoryMB,
			RunModel: s.Req.RunModel.String(),
		},
	}
	for _, p := range s.Params {
		d.Params = append(d.Params, Param{Type: string(p.Type), Value: p.Value})
	}
	return d
}

// Encode renders the document as indented XML with the standard header.
func (d *Document) Encode(w io.Writer) error {
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return fmt.Errorf("cnx: encode: %w", err)
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(d); err != nil {
		return fmt.Errorf("cnx: encode: %w", err)
	}
	if err := enc.Close(); err != nil {
		return fmt.Errorf("cnx: encode: %w", err)
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// EncodeString renders the document as a string.
func (d *Document) EncodeString() (string, error) {
	var sb strings.Builder
	if err := d.Encode(&sb); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// Validate checks the whole document: client class present, at least one
// job, per-job task-name uniqueness, resolvable dependencies, and an acyclic
// dependency graph. Unnamed jobs receive generated names.
func (d *Document) Validate() error {
	if d.Client.Class == "" {
		return fmt.Errorf("cnx: client missing class attribute")
	}
	if len(d.Client.Jobs) == 0 {
		return fmt.Errorf("cnx: client %q has no jobs", d.Client.Class)
	}
	for ji := range d.Client.Jobs {
		job := &d.Client.Jobs[ji]
		if job.Name == "" {
			job.Name = fmt.Sprintf("job%d", ji)
		}
		if len(job.Tasks) == 0 {
			return fmt.Errorf("cnx: job %q has no tasks", job.Name)
		}
		seen := make(map[string]bool, len(job.Tasks))
		for i := range job.Tasks {
			t := &job.Tasks[i]
			if t.Name == "" {
				return fmt.Errorf("cnx: job %q: task %d missing name", job.Name, i)
			}
			if seen[t.Name] {
				return fmt.Errorf("cnx: job %q: duplicate task name %q", job.Name, t.Name)
			}
			seen[t.Name] = true
			if t.Class == "" {
				return fmt.Errorf("cnx: job %q: task %q missing class", job.Name, t.Name)
			}
		}
		for i := range job.Tasks {
			t := &job.Tasks[i]
			for _, dep := range t.DependsList() {
				if dep == t.Name {
					return fmt.Errorf("cnx: job %q: task %q depends on itself", job.Name, t.Name)
				}
				if !seen[dep] {
					return fmt.Errorf("cnx: job %q: task %q depends on unknown task %q", job.Name, t.Name, dep)
				}
			}
		}
		if _, err := job.TopoOrder(); err != nil {
			return err
		}
	}
	return nil
}

// Graph returns the job's dependency adjacency: task name -> names it
// depends on.
func (j *Job) Graph() map[string][]string {
	g := make(map[string][]string, len(j.Tasks))
	for i := range j.Tasks {
		g[j.Tasks[i].Name] = j.Tasks[i].DependsList()
	}
	return g
}

// TopoOrder returns a deterministic topological ordering of the job's tasks
// (dependencies first). It fails on cycles, naming one task on the cycle.
func (j *Job) TopoOrder() ([]string, error) {
	g := j.Graph()
	// Deterministic iteration: sort names.
	names := make([]string, 0, len(g))
	for n := range g {
		names = append(names, n)
	}
	sort.Strings(names)

	const (
		white = 0 // unvisited
		gray  = 1 // on stack
		black = 2 // done
	)
	color := make(map[string]int, len(g))
	var order []string
	var visit func(n string) error
	visit = func(n string) error {
		switch color[n] {
		case gray:
			return fmt.Errorf("cnx: job %q: dependency cycle involving task %q", j.Name, n)
		case black:
			return nil
		}
		color[n] = gray
		deps := append([]string(nil), g[n]...)
		sort.Strings(deps)
		for _, d := range deps {
			if _, ok := g[d]; !ok {
				continue // unknown deps are caught by Validate
			}
			if err := visit(d); err != nil {
				return err
			}
		}
		color[n] = black
		order = append(order, n)
		return nil
	}
	for _, n := range names {
		if err := visit(n); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// Roots returns tasks with no dependencies, sorted.
func (j *Job) Roots() []string {
	var roots []string
	for i := range j.Tasks {
		if len(j.Tasks[i].DependsList()) == 0 {
			roots = append(roots, j.Tasks[i].Name)
		}
	}
	sort.Strings(roots)
	return roots
}

// Leaves returns tasks no other task depends on, sorted.
func (j *Job) Leaves() []string {
	depended := make(map[string]bool)
	for i := range j.Tasks {
		for _, d := range j.Tasks[i].DependsList() {
			depended[d] = true
		}
	}
	var leaves []string
	for i := range j.Tasks {
		if !depended[j.Tasks[i].Name] {
			leaves = append(leaves, j.Tasks[i].Name)
		}
	}
	sort.Strings(leaves)
	return leaves
}

// Task returns the named task declaration, or nil.
func (j *Job) Task(name string) *TaskDecl {
	for i := range j.Tasks {
		if j.Tasks[i].Name == name {
			return &j.Tasks[i]
		}
	}
	return nil
}

// Specs converts every task declaration in the job to runtime specs, in
// declaration order.
func (j *Job) Specs() ([]*task.Spec, error) {
	specs := make([]*task.Spec, 0, len(j.Tasks))
	for i := range j.Tasks {
		s, err := j.Tasks[i].Spec()
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	return specs, nil
}

// ArchiveNames returns the distinct archive (jar) names referenced by the
// job, sorted.
func (j *Job) ArchiveNames() []string {
	set := make(map[string]bool)
	for i := range j.Tasks {
		if j.Tasks[i].Jar != "" {
			set[j.Tasks[i].Jar] = true
		}
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
