// Package archive implements the CN task archive format — the stand-in for
// the paper's JAR files. "A Task is typically packaged as a self-sufficient
// JAR file that has a class that conforms to the Task interface"; here an
// archive is a zip file containing a MANIFEST naming the task class plus any
// resource files the task ships with. The JobManager uploads archive bytes
// to the chosen TaskManager, which verifies the digest and resolves the
// class against the process registry (Go cannot load code dynamically).
package archive

import (
	"archive/zip"
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
)

// ManifestName is the well-known path of the manifest entry inside an
// archive, mirroring Java's META-INF/MANIFEST.MF.
const ManifestName = "META-INF/MANIFEST.MF"

// Manifest describes the archive's deployable class, in the spirit of a JAR
// manifest's Main-Class attribute.
type Manifest struct {
	// TaskClass is the class name resolved against the task registry,
	// e.g. "org.jhpc.cn2.trnsclsrtask.TCTask".
	TaskClass string
	// Version is a free-form archive version string.
	Version string
	// Attributes holds additional key: value pairs.
	Attributes map[string]string
}

// encode renders the manifest in the classic "Key: value" line format.
func (m *Manifest) encode() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "Task-Class: %s\n", m.TaskClass)
	if m.Version != "" {
		fmt.Fprintf(&b, "Archive-Version: %s\n", m.Version)
	}
	keys := make([]string, 0, len(m.Attributes))
	for k := range m.Attributes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s: %s\n", k, m.Attributes[k])
	}
	return b.Bytes()
}

// parseManifest parses the line format produced by encode.
func parseManifest(data []byte) (*Manifest, error) {
	m := &Manifest{Attributes: make(map[string]string)}
	for lineNo, line := range strings.Split(string(data), "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		key, value, ok := strings.Cut(line, ": ")
		if !ok {
			return nil, fmt.Errorf("archive: manifest line %d malformed: %q", lineNo+1, line)
		}
		switch key {
		case "Task-Class":
			m.TaskClass = value
		case "Archive-Version":
			m.Version = value
		default:
			m.Attributes[key] = value
		}
	}
	if m.TaskClass == "" {
		return nil, fmt.Errorf("archive: manifest missing Task-Class")
	}
	return m, nil
}

// Archive is an in-memory task archive: a named bundle of bytes plus its
// parsed manifest. Name corresponds to the descriptor's jar="tctask.jar"
// attribute.
type Archive struct {
	// Name is the archive file name used in descriptors.
	Name string
	// Manifest is the parsed manifest.
	Manifest Manifest
	// Files maps entry path -> content for every non-manifest entry.
	Files map[string][]byte
	// raw holds the serialized zip bytes (the unit of upload).
	raw []byte
	// digest is the hex SHA-256 of raw, computed once at Build/Open time.
	digest string
}

// Builder assembles an archive.
type Builder struct {
	name     string
	manifest Manifest
	files    map[string][]byte
}

// NewBuilder starts an archive with the given file name and task class.
func NewBuilder(name, taskClass string) *Builder {
	return &Builder{
		name:     name,
		manifest: Manifest{TaskClass: taskClass, Attributes: make(map[string]string)},
		files:    make(map[string][]byte),
	}
}

// Version sets the archive version string.
func (b *Builder) Version(v string) *Builder {
	b.manifest.Version = v
	return b
}

// Attribute adds a manifest attribute.
func (b *Builder) Attribute(key, value string) *Builder {
	b.manifest.Attributes[key] = value
	return b
}

// AddFile adds a resource entry. Adding ManifestName explicitly is an error
// at Build time.
func (b *Builder) AddFile(path string, content []byte) *Builder {
	b.files[path] = append([]byte(nil), content...)
	return b
}

// Build serializes the archive to zip bytes and returns the Archive.
func (b *Builder) Build() (*Archive, error) {
	if b.name == "" {
		return nil, fmt.Errorf("archive: build: empty archive name")
	}
	if b.manifest.TaskClass == "" {
		return nil, fmt.Errorf("archive: build %q: empty task class", b.name)
	}
	if _, clash := b.files[ManifestName]; clash {
		return nil, fmt.Errorf("archive: build %q: %s must not be added explicitly", b.name, ManifestName)
	}
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	w, err := zw.Create(ManifestName)
	if err != nil {
		return nil, fmt.Errorf("archive: build %q: %w", b.name, err)
	}
	if _, err := w.Write(b.manifest.encode()); err != nil {
		return nil, fmt.Errorf("archive: build %q: %w", b.name, err)
	}
	paths := make([]string, 0, len(b.files))
	for p := range b.files {
		paths = append(paths, p)
	}
	sort.Strings(paths) // deterministic archives -> stable digests
	for _, p := range paths {
		w, err := zw.Create(p)
		if err != nil {
			return nil, fmt.Errorf("archive: build %q: entry %q: %w", b.name, p, err)
		}
		if _, err := w.Write(b.files[p]); err != nil {
			return nil, fmt.Errorf("archive: build %q: entry %q: %w", b.name, p, err)
		}
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("archive: build %q: %w", b.name, err)
	}
	return &Archive{
		Name:     b.name,
		Manifest: b.manifest,
		Files:    b.files,
		raw:      buf.Bytes(),
		digest:   DigestBytes(buf.Bytes()),
	}, nil
}

// Bytes returns the serialized zip content — the unit the JobManager uploads
// to a TaskManager.
func (a *Archive) Bytes() []byte { return a.raw }

// Digest returns the hex SHA-256 of the serialized archive — its content
// address; the TaskManager verifies it after upload. Build and Open
// precompute it, so reads are safe from any goroutine.
func (a *Archive) Digest() string { return a.digest }

// File returns a resource entry's content, or an error if absent.
func (a *Archive) File(path string) ([]byte, error) {
	c, ok := a.Files[path]
	if !ok {
		return nil, fmt.Errorf("archive: %q has no entry %q", a.Name, path)
	}
	return c, nil
}

// Open parses serialized archive bytes back into an Archive.
func Open(name string, raw []byte) (*Archive, error) {
	zr, err := zip.NewReader(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		return nil, fmt.Errorf("archive: open %q: %w", name, err)
	}
	a := &Archive{Name: name, Files: make(map[string][]byte), raw: append([]byte(nil), raw...)}
	a.digest = DigestBytes(a.raw)
	var sawManifest bool
	for _, f := range zr.File {
		rc, err := f.Open()
		if err != nil {
			return nil, fmt.Errorf("archive: open %q: entry %q: %w", name, f.Name, err)
		}
		content, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			return nil, fmt.Errorf("archive: open %q: entry %q: %w", name, f.Name, err)
		}
		if f.Name == ManifestName {
			m, err := parseManifest(content)
			if err != nil {
				return nil, fmt.Errorf("archive: open %q: %w", name, err)
			}
			a.Manifest = *m
			sawManifest = true
			continue
		}
		a.Files[f.Name] = content
	}
	if !sawManifest {
		return nil, fmt.Errorf("archive: open %q: missing %s", name, ManifestName)
	}
	return a, nil
}
