package cnx

import (
	"bytes"
	"fmt"
	"io"
	"strconv"

	"cn/internal/xmlscan"
)

// Parse decodes a CNX document from XML.
func Parse(r io.Reader) (*Document, error) {
	src, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("cnx: parse: %w", err)
	}
	return ParseBytes(src)
}

// ParseString decodes a CNX document from a string.
func ParseString(s string) (*Document, error) { return ParseBytes([]byte(s)) }

// ParseBytes decodes a CNX document from XML held in memory. The document
// owns its strings: none of them points into src, so keeping a client class
// or a task name does not keep the submission.
//
// It reads what decoding into Document with encoding/xml read — elements and
// attributes matched by local name, unknown ones skipped, a repeated element
// merged into the one before it, reading stopped at the root's end tag — and
// refuses what that refused (see package xmlscan for the one exception).
func ParseBytes(src []byte) (*Document, error) {
	r := reader{sc: xmlscan.New(src)}
	doc, err := r.document()
	if err != nil {
		return nil, fmt.Errorf("cnx: parse: %w", err)
	}
	return doc, nil
}

// reader fills a Document from the scanner: one method per element, each
// entered with the scanner on the element's start tag and left on its end tag.
type reader struct {
	sc  *xmlscan.Scanner
	buf []byte // character data of the scalar element being read
}

// child advances to the next child element of the element being read and
// reports its name, or ok false at the element's end tag.
func (r *reader) child() (name []byte, ok bool, err error) {
	for {
		kind, err := r.sc.Next()
		switch {
		case err != nil:
			return nil, false, err
		case kind == xmlscan.Start:
			return r.sc.Name(), true, nil
		case kind == xmlscan.End:
			return nil, false, nil
		}
	}
}

func (r *reader) document() (*Document, error) {
	for {
		kind, err := r.sc.Next()
		if err == io.EOF {
			return nil, fmt.Errorf("no <cn2> element: %w", io.ErrUnexpectedEOF)
		}
		if err != nil {
			return nil, err
		}
		if kind == xmlscan.Start {
			break
		}
	}
	if name := r.sc.Name(); string(name) != "cn2" {
		return nil, fmt.Errorf("expected element type <cn2> but have <%s>", name)
	}
	doc := &Document{}
	doc.XMLName.Local = "cn2"
	for {
		name, ok, err := r.child()
		if err != nil || !ok {
			return doc, err
		}
		if string(name) == "client" {
			err = r.client(&doc.Client)
		} else {
			err = r.sc.Skip()
		}
		if err != nil {
			return nil, err
		}
	}
}

func (r *reader) client(c *Client) error {
	for _, a := range r.sc.Attrs() {
		switch string(a.Name) {
		case "class":
			c.Class = string(a.Value)
		case "log":
			c.Log = string(a.Value)
		case "port":
			n, err := atoi(a.Value)
			if err != nil {
				return err
			}
			c.Port = n
		}
	}
	for {
		name, ok, err := r.child()
		if err != nil || !ok {
			return err
		}
		if string(name) == "job" {
			c.Jobs = append(c.Jobs, Job{})
			err = r.job(&c.Jobs[len(c.Jobs)-1])
		} else {
			err = r.sc.Skip()
		}
		if err != nil {
			return err
		}
	}
}

func (r *reader) job(j *Job) error {
	for _, a := range r.sc.Attrs() {
		if string(a.Name) == "name" {
			j.Name = string(a.Value)
		}
	}
	for {
		name, ok, err := r.child()
		if err != nil || !ok {
			return err
		}
		if string(name) == "task" {
			j.Tasks = append(j.Tasks, TaskDecl{})
			err = r.task(&j.Tasks[len(j.Tasks)-1])
		} else {
			err = r.sc.Skip()
		}
		if err != nil {
			return err
		}
	}
}

func (r *reader) task(t *TaskDecl) error {
	for _, a := range r.sc.Attrs() {
		switch string(a.Name) {
		case "name":
			t.Name = string(a.Value)
		case "jar":
			t.Jar = string(a.Value)
		case "class":
			t.Class = string(a.Value)
		case "depends":
			t.Depends = string(a.Value)
		}
	}
	for {
		name, ok, err := r.child()
		if err != nil || !ok {
			return err
		}
		switch string(name) {
		case "task-req":
			if t.Req == nil {
				t.Req = &ReqXML{}
			}
			err = r.req(t.Req)
		case "param":
			t.Params = append(t.Params, Param{})
			err = r.param(&t.Params[len(t.Params)-1])
		default:
			err = r.sc.Skip()
		}
		if err != nil {
			return err
		}
	}
}

func (r *reader) req(q *ReqXML) error {
	for {
		name, ok, err := r.child()
		if err != nil || !ok {
			return err
		}
		switch string(name) {
		case "memory":
			var text []byte
			if text, err = r.chardata(); err == nil {
				q.Memory, err = atoi(text)
			}
		case "runmodel":
			var text []byte
			if text, err = r.chardata(); err == nil {
				q.RunModel = string(text)
			}
		default:
			err = r.sc.Skip()
		}
		if err != nil {
			return err
		}
	}
}

func (r *reader) param(p *Param) error {
	for _, a := range r.sc.Attrs() {
		if string(a.Name) == "type" {
			p.Type = string(a.Value)
		}
	}
	text, err := r.chardata()
	p.Value = string(text)
	return err
}

// chardata reads the current element to its end tag and returns its own
// character data (child elements are skipped), valid until the next call.
func (r *reader) chardata() ([]byte, error) {
	r.buf = r.buf[:0]
	for {
		kind, err := r.sc.Next()
		switch {
		case err != nil:
			return nil, err
		case kind == xmlscan.Text:
			r.buf = append(r.buf, r.sc.Text()...)
		case kind == xmlscan.Start:
			if err := r.sc.Skip(); err != nil {
				return nil, err
			}
		case kind == xmlscan.End:
			return r.buf, nil
		}
	}
}

// atoi reads an integer the way encoding/xml does: empty is 0, otherwise the
// value is trimmed of space and must be a decimal int.
func atoi(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, nil
	}
	n, err := strconv.ParseInt(string(bytes.TrimSpace(b)), 10, strconv.IntSize)
	return int(n), err
}
