// Binary encoding for trace spans. Exported (unlike the per-body payload
// encoders) because spans ride two different envelopes: protocol bodies
// (TaskEvents, CreateTasksReq) and the JobManager's opaque checkpoint image,
// which must stay byte-compatible with each other.

package wire

import (
	"fmt"
	"time"

	"cn/internal/trace"
)

// MaxSpansPerMessage bounds a decoded span list; span piggybacking is
// telemetry, never bulk data.
const MaxSpansPerMessage = 4096

// AppendSpan appends one span's binary encoding.
func AppendSpan(dst []byte, s trace.Span) []byte {
	dst = AppendUvarint(dst, s.Trace)
	dst = AppendUvarint(dst, s.ID)
	dst = AppendUvarint(dst, s.Parent)
	dst = AppendString(dst, s.Name)
	dst = AppendString(dst, s.Node)
	dst = AppendString(dst, s.Job)
	dst = AppendString(dst, s.Task)
	var nanos int64
	if !s.Start.IsZero() {
		nanos = s.Start.UnixNano()
	}
	dst = AppendVarint(dst, nanos)
	dst = AppendVarint(dst, int64(s.Dur))
	return AppendString(dst, s.Err)
}

// ReadSpan decodes one span.
func ReadSpan(r *Reader) (trace.Span, error) {
	var s trace.Span
	var err error
	if s.Trace, err = r.Uvarint(); err != nil {
		return s, err
	}
	if s.ID, err = r.Uvarint(); err != nil {
		return s, err
	}
	if s.Parent, err = r.Uvarint(); err != nil {
		return s, err
	}
	if s.Name, err = r.String(); err != nil {
		return s, err
	}
	if s.Node, err = r.String(); err != nil {
		return s, err
	}
	if s.Job, err = r.String(); err != nil {
		return s, err
	}
	if s.Task, err = r.String(); err != nil {
		return s, err
	}
	nanos, err := r.Varint()
	if err != nil {
		return s, err
	}
	if nanos != 0 {
		s.Start = time.Unix(0, nanos)
	}
	dur, err := r.Varint()
	if err != nil {
		return s, err
	}
	s.Dur = time.Duration(dur)
	s.Err, err = r.String()
	return s, err
}

// AppendSpans appends a length-prefixed span list.
func AppendSpans(dst []byte, spans []trace.Span) []byte {
	dst = AppendUvarint(dst, uint64(len(spans)))
	for _, s := range spans {
		dst = AppendSpan(dst, s)
	}
	return dst
}

// ReadSpans decodes a length-prefixed span list (nil when empty).
func ReadSpans(r *Reader) ([]trace.Span, error) {
	n, err := r.Count("spans")
	if err != nil || n == 0 {
		return nil, err
	}
	if n > MaxSpansPerMessage {
		return nil, fmt.Errorf("wire: %d spans exceed limit %d", n, MaxSpansPerMessage)
	}
	out := make([]trace.Span, 0, capHint(n))
	for i := 0; i < n; i++ {
		s, err := ReadSpan(r)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}
