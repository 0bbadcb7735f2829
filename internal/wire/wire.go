// Package wire implements CN's hand-rolled binary wire format: a
// versioned, length-delimited encoding for the protocol's well-defined
// message bodies and for the message envelope itself.
//
// Every protocol layer — discovery, placement, assignment, heartbeats,
// tuple-space ops — rides the same message fabric, so codec cost taxes the
// whole system: each body has an append-based marshal/unmarshal pair of its
// own, with no reflection per field and no type descriptor on the wire. A
// user message (KindUser) is the application's bytes, encoded by the
// application, and rides a UserPayload body verbatim.
//
// Layout primitives: unsigned varints (uvarint), zig-zag signed varints,
// and uvarint-length-prefixed strings and byte slices. Every read is
// bounds-checked and returns an error — malformed input must never panic,
// byte slices only ever alias the input, and collection decodes cap their
// upfront allocation so a corrupted count cannot balloon memory before
// the first bad element is detected.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// Version is the wire-format version carried in every frame header and
// binary payload header. Version 2 added the optional trailing trace
// context to the message envelope, version 3 the trailing locality fields
// to the TMOffer body, version 4 the frame's bulk tail (and moved the chunk
// bodies' Data into it), version 5 the trailing NoReply flag of the TSOpReq
// body, version 6 the task list of the ExecTaskReq body and the TaskEvents
// body (TASK_STARTED / TASK_COMPLETED / TASK_FAILED stopped being frames),
// version 7 the Size of an ArchiveRef that has a digest (FETCH_BLOB,
// BLOB_DATA and SHUTDOWN left the kind table and renumbered it; TaskEvent
// lost its unused Spans), version 8 dropped the envelope's timestamp and
// TSOpReq's job and requester names, carried the tuple itself in TSOpReq and
// TSOpResp, and gave JMOffer a trailing Refused reason; version 9 dropped the
// payload's leading tag byte, which told binary bodies from gob ones until
// gob left the runtime (a payload is the version, the type id, the fields);
// version 11 (10 is the connection preamble's, see ConnVersion) gave the
// TaskEvents body the retry and job labels, with a label's own trailing
// fields, and retired the TaskEvent body (JOB_COMPLETED and TASK_RETRIED
// stopped being frames); version 12 dropped the StatsReport body's trailing
// span count; version 13 gave the CreateTasks body the job's header (name,
// requirements, client node), the Start flag, the start's task names and
// the client's spans, and the AssignTasks body its run list, and retired the
// create-job, job-created and start bodies with their kinds (the kind table
// renumbered); version 14 dropped the start's task names from the
// CreateTasks body (a start runs the whole job); version 15 gave the
// TMOffer, AssignTasksResp and TaskEvents bodies the node's capacity figure
// (sequence, free memory, running tasks), one layout in all three. Nothing outside this repository speaks the wire, so a receiver
// accepts exactly this version and rejects the rest (see docs/WIRE.md).
const Version = 15

// MaxFrameBytes bounds one transport frame (envelope + payload + tail). Senders
// refuse to emit larger frames and receivers drop the connection on a
// larger announced length, so a corrupt or hostile stream cannot force an
// unbounded allocation. Archive blobs larger than this move in
// protocol.BlobChunkBytes-sized chunks instead of one message.
const MaxFrameBytes = 1 << 20

// Frame magic bytes: the first two bytes of every frame body.
const (
	Magic0 = 'C'
	Magic1 = 'N'
)

// ErrFrameTooLarge is returned by AppendFrame when the encoded message
// exceeds MaxFrameBytes; the send fails without poisoning the connection.
var ErrFrameTooLarge = fmt.Errorf("wire: frame exceeds %d bytes", MaxFrameBytes)

// bufPool recycles encode scratch buffers across sends; buffers that grew
// past MaxFrameBytes are dropped rather than pinned in the pool.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// GetBuf borrows a zero-length scratch buffer from the pool.
func GetBuf() *[]byte {
	b := bufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// PutBuf returns a scratch buffer to the pool.
func PutBuf(b *[]byte) {
	if cap(*b) > MaxFrameBytes {
		return
	}
	bufPool.Put(b)
}

// AppendUvarint appends u as an unsigned varint.
func AppendUvarint(dst []byte, u uint64) []byte {
	return binary.AppendUvarint(dst, u)
}

// AppendVarint appends i as a zig-zag signed varint.
func AppendVarint(dst []byte, i int64) []byte {
	return binary.AppendVarint(dst, i)
}

// AppendBool appends a one-byte boolean.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendFloat64 appends the IEEE-754 bits little-endian.
func AppendFloat64(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

// AppendString appends a uvarint length followed by the string bytes.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBytes appends a uvarint length followed by the slice bytes. A nil
// slice and an empty slice both encode as length zero and decode as nil.
func AppendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// Reader is a bounds-checked cursor over an encoded buffer. Decoded byte
// slices alias the input buffer; callers that reuse the buffer must copy.
type Reader struct {
	b   []byte
	off int
}

// NewReader wraps b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Len reports how many bytes remain unread.
func (r *Reader) Len() int { return len(r.b) - r.off }

func (r *Reader) errTruncated(what string) error {
	return fmt.Errorf("wire: truncated %s at offset %d", what, r.off)
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() (uint64, error) {
	u, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, r.errTruncated("uvarint")
	}
	r.off += n
	return u, nil
}

// Varint reads a zig-zag signed varint.
func (r *Reader) Varint() (int64, error) {
	i, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		return 0, r.errTruncated("varint")
	}
	r.off += n
	return i, nil
}

// Int reads a varint-encoded int.
func (r *Reader) Int() (int, error) {
	i, err := r.Varint()
	return int(i), err
}

// Bool reads a one-byte boolean.
func (r *Reader) Bool() (bool, error) {
	if r.off >= len(r.b) {
		return false, r.errTruncated("bool")
	}
	v := r.b[r.off]
	r.off++
	if v > 1 {
		return false, fmt.Errorf("wire: invalid bool byte %#x at offset %d", v, r.off-1)
	}
	return v == 1, nil
}

// Float64 reads IEEE-754 bits little-endian.
func (r *Reader) Float64() (float64, error) {
	if r.Len() < 8 {
		return 0, r.errTruncated("float64")
	}
	u := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return math.Float64frombits(u), nil
}

// String reads a length-prefixed string.
func (r *Reader) String() (string, error) {
	b, err := r.Bytes()
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// Bytes reads a length-prefixed byte slice aliasing the input buffer. A
// zero length decodes as nil.
func (r *Reader) Bytes() ([]byte, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	// The announced length can never exceed what is actually present, so a
	// corrupted length cannot drive an allocation: the slice aliases input.
	if n > uint64(r.Len()) {
		return nil, fmt.Errorf("wire: byte-slice length %d exceeds remaining %d at offset %d", n, r.Len(), r.off)
	}
	if n == 0 {
		return nil, nil
	}
	b := r.b[r.off : r.off+int(n) : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

// Count reads a collection length and sanity-checks it against the bytes
// remaining (each element costs at least one byte on the wire), so a
// corrupted count cannot drive a huge make().
func (r *Reader) Count(what string) (int, error) {
	n, err := r.Uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(r.Len()) {
		return 0, fmt.Errorf("wire: %s count %d exceeds remaining %d bytes", what, n, r.Len())
	}
	return int(n), nil
}
