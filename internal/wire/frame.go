// Message-envelope framing: the transport's unit of transmission is a
// length-prefixed binary frame holding one msg.Message. The frame body
// starts with the magic bytes and the format version, so a receiver can
// reject foreign or incompatible streams before trusting any length it
// reads; body length is bounded by MaxFrameBytes at both ends.
//
//	frame   := len(uint32 BE) body
//	body    := 'C' 'N' vbyte [taillen] envelope [tail]
//	vbyte   := Version, with TailFlag set iff a bulk tail follows the envelope
//	taillen := uint32 BE, > 0                  (present iff TailFlag)
//	envelope:= id kind correlID from to headers payload [trace]
//	trace   := traceID spanID parentID   (uvarints; present iff traced)
//	tail    := taillen raw bytes (msg.Message.Tail)
//
// The tail is what lets bulk bytes cross a node boundary without being
// copied in user space: a sender writes head and tail as two iovecs, and a
// receiver that has decoded the head can read the tail straight into a
// buffer its consumer posted (FrameReader). len counts everything after
// the prefix, tail included, so every limit is a limit on head + tail.

package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"io"

	"cn/internal/msg"
	"cn/internal/trace"
)

// FrameHeaderBytes is the length-prefix size preceding every frame body.
const FrameHeaderBytes = 4

// frameBodyMin is the smallest valid frame body: magic + version alone.
const frameBodyMin = 3

// TailFlag in a frame's version byte says a tail length word follows it
// and that many raw bytes follow the envelope.
const TailFlag = 0x80

// tailLenBytes is the size of the tail length word.
const tailLenBytes = 4

// maxHeaderEntries bounds a message's header map on decode; CN headers are
// small string metadata, never bulk data.
const maxHeaderEntries = 1024

// AppendMessage appends m's binary envelope (without the frame length
// prefix or magic) to dst. The payload rides verbatim; it is already
// encoded and self-tagged.
func AppendMessage(dst []byte, m *msg.Message) []byte {
	dst = AppendUvarint(dst, m.ID)
	dst = AppendUvarint(dst, uint64(m.Kind))
	dst = AppendUvarint(dst, m.CorrelID)
	dst = appendAddress(dst, m.From)
	dst = appendAddress(dst, m.To)
	dst = AppendUvarint(dst, uint64(len(m.Headers)))
	if len(m.Headers) > 0 {
		// Header order does not matter on the wire; iteration order is fine
		// and avoids a sort on the hot path.
		for k, v := range m.Headers {
			dst = AppendString(dst, k)
			dst = AppendString(dst, v)
		}
	}
	dst = AppendBytes(dst, m.Payload)
	// The trace context is the envelope's only optional field: untraced
	// messages (the common case at default sampling) pay zero bytes.
	if !m.Trace.IsZero() {
		dst = AppendUvarint(dst, m.Trace.TraceID)
		dst = AppendUvarint(dst, m.Trace.SpanID)
		dst = AppendUvarint(dst, m.Trace.ParentID)
	}
	return dst
}

func appendAddress(dst []byte, a msg.Address) []byte {
	dst = AppendString(dst, a.Node)
	dst = AppendString(dst, a.Job)
	return AppendString(dst, a.Task)
}

// decodeMessage parses a binary envelope produced by AppendMessage. The
// returned message's Payload aliases b; callers that recycle b must copy.
// Malformed input returns an error, never panics. Address strings come from
// names (nil: fresh ones).
func decodeMessage(b []byte, names *nameCache) (*msg.Message, error) {
	r := &Reader{b: b}
	m := &msg.Message{}
	var err error
	if m.ID, err = r.Uvarint(); err != nil {
		return nil, err
	}
	kind, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if kind > uint64(msg.KindCount)*16 {
		// Unknown kinds are tolerated (skew within reason), absurd ones are
		// corruption.
		return nil, fmt.Errorf("wire: implausible message kind %d", kind)
	}
	m.Kind = msg.Kind(kind)
	if m.CorrelID, err = r.Uvarint(); err != nil {
		return nil, err
	}
	if m.From, err = readAddress(r, names); err != nil {
		return nil, err
	}
	if m.To, err = readAddress(r, names); err != nil {
		return nil, err
	}
	nh, err := r.Count("headers")
	if err != nil {
		return nil, err
	}
	if nh > maxHeaderEntries {
		return nil, fmt.Errorf("wire: %d header entries exceed limit", nh)
	}
	if nh > 0 {
		m.Headers = make(map[string]string, nh)
		for i := 0; i < nh; i++ {
			k, err := r.String()
			if err != nil {
				return nil, err
			}
			v, err := r.String()
			if err != nil {
				return nil, err
			}
			m.Headers[k] = v
		}
	}
	if m.Payload, err = r.Bytes(); err != nil {
		return nil, err
	}
	if r.Len() > 0 {
		// Optional trailing trace context.
		var tc trace.Context
		if tc.TraceID, err = r.Uvarint(); err != nil {
			return nil, err
		}
		if tc.SpanID, err = r.Uvarint(); err != nil {
			return nil, err
		}
		if tc.ParentID, err = r.Uvarint(); err != nil {
			return nil, err
		}
		m.Trace = tc
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after message envelope", r.Len())
	}
	return m, nil
}

func readAddress(r *Reader, names *nameCache) (msg.Address, error) {
	var a msg.Address
	for _, s := range [...]*string{&a.Node, &a.Job, &a.Task} {
		b, err := r.Bytes()
		if err != nil {
			return a, err
		}
		*s = names.intern(b)
	}
	return a, nil
}

// nameCache reuses the strings of a stream's envelope addresses, which name
// the same few nodes, jobs and tasks frame after frame. It is direct-mapped
// and not safe for concurrent use; a nil cache makes a string per name.
type nameCache struct {
	seed  maphash.Seed
	slots [64]string
}

func (c *nameCache) intern(b []byte) string {
	if c == nil || len(b) == 0 {
		return string(b)
	}
	s := &c.slots[maphash.Bytes(c.seed, b)%uint64(len(c.slots))]
	if *s != string(b) {
		*s = string(b)
	}
	return *s
}

// AppendFrame appends the complete, contiguous frame for m — length
// prefix, magic, version, envelope and, copied in, the tail. When the body
// would exceed MaxFrameBytes it returns dst truncated back to its original
// length and ErrFrameTooLarge — the send fails cleanly without corrupting
// the stream. The transport's unicast path uses AppendFrameHead instead
// and never copies the tail.
func AppendFrame(dst []byte, m *msg.Message) ([]byte, error) {
	dst, err := AppendFrameHead(dst, m)
	if err != nil {
		return dst, err
	}
	return append(dst, m.Tail...), nil
}

// AppendFrameHead appends m's frame up to, and not including, the tail's
// bytes: the length prefix (which counts them), magic, version, tail length
// and envelope. A writer that puts m.Tail on the stream right after it has
// sent exactly what AppendFrame would have produced. The MaxFrameBytes
// check is on head + tail and fails the same way AppendFrame does.
func AppendFrameHead(dst []byte, m *msg.Message) ([]byte, error) {
	start := len(dst)
	if len(m.Tail) == 0 {
		dst = append(dst, 0, 0, 0, 0, Magic0, Magic1, Version)
	} else {
		dst = append(dst, 0, 0, 0, 0, Magic0, Magic1, Version|TailFlag, 0, 0, 0, 0)
	}
	dst = AppendMessage(dst, m)
	body := len(dst) - start - FrameHeaderBytes + len(m.Tail)
	if body > MaxFrameBytes {
		return dst[:start], fmt.Errorf("%w (message %s is %d bytes)", ErrFrameTooLarge, m.Kind, body)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(body))
	if len(m.Tail) > 0 {
		binary.BigEndian.PutUint32(dst[start+FrameHeaderBytes+frameBodyMin:], uint32(len(m.Tail)))
	}
	return dst, nil
}

// CheckFrameLen validates an announced frame-body length before any
// allocation happens for it.
func CheckFrameLen(n uint32) error {
	if n < frameBodyMin {
		return fmt.Errorf("wire: frame body length %d below minimum %d", n, frameBodyMin)
	}
	if n > MaxFrameBytes {
		return fmt.Errorf("wire: frame body length %d exceeds MaxFrameBytes %d", n, MaxFrameBytes)
	}
	return nil
}

// checkPreamble validates a frame body's first frameBodyMin bytes — magic
// and the single accepted version — and reports whether the frame carries
// a tail.
func checkPreamble(p []byte) (tailed bool, err error) {
	if p[0] != Magic0 || p[1] != Magic1 {
		return false, fmt.Errorf("wire: bad frame magic %#x %#x", p[0], p[1])
	}
	if v := p[2] &^ TailFlag; v != Version {
		return false, fmt.Errorf("wire: frame version %d not supported (want %d)", v, Version)
	}
	return p[2]&TailFlag != 0, nil
}

// splitTail validates a tail length word against rest, the number of frame
// bytes that follow the word, and returns the envelope's and the tail's
// lengths. The word comes off the stream, so it is checked before anything
// is allocated or read on its say-so: a tail is never empty and never
// longer than what the frame length — itself already checked against
// MaxFrameBytes — leaves for it.
func splitTail(word []byte, rest int) (envLen, tailLen int, err error) {
	n := binary.BigEndian.Uint32(word)
	if n == 0 || uint64(n) > uint64(rest) {
		return 0, 0, fmt.Errorf("wire: tail length %d does not fit the %d frame bytes after it", n, rest)
	}
	return rest - int(n), int(n), nil
}

// DecodeFrameBody parses a contiguous frame body (everything after the
// length prefix, as AppendFrame lays it out): magic, version, then the
// message envelope and, when flagged, the tail. The returned message's
// Payload and Tail alias body.
func DecodeFrameBody(body []byte) (*msg.Message, error) {
	if len(body) < frameBodyMin {
		return nil, fmt.Errorf("wire: frame body too short (%d bytes)", len(body))
	}
	tailed, err := checkPreamble(body)
	if err != nil {
		return nil, err
	}
	body = body[frameBodyMin:]
	if !tailed {
		return decodeMessage(body, nil)
	}
	if len(body) < tailLenBytes {
		return nil, fmt.Errorf("wire: frame ends inside its tail length")
	}
	envLen, _, err := splitTail(body, len(body)-tailLenBytes)
	if err != nil {
		return nil, err
	}
	body = body[tailLenBytes:]
	m, err := decodeMessage(body[:envLen], nil)
	if err != nil {
		return nil, err
	}
	m.Tail = body[envLen:len(body):len(body)]
	return m, nil
}

// FrameError marks a frame the peer should never have sent — a length out
// of bounds, foreign magic, another version, a tail length that does not
// fit, an undecodable envelope. The stream cannot be resynchronized after
// one, so the transport drops the connection. Any other error from
// FrameReader.Next is the underlying reader's.
type FrameError struct{ Err error }

func (e *FrameError) Error() string { return e.Err.Error() }
func (e *FrameError) Unwrap() error { return e.Err }

// FrameReader reads frames off one inbound stream, head first: it learns
// the tail's length before it reads the tail, which is what lets the tail
// land in a buffer posted for it instead of a fresh allocation.
type FrameReader struct {
	br *bufio.Reader
	// post, when not nil, is asked between head and tail for the buffer the
	// tail should be read into. It sees the decoded head (Tail still nil)
	// and the tail's length n, and returns a slice of exactly n bytes, or
	// nil to have one allocated.
	post func(head *msg.Message, n int) []byte
	// prefix is the length prefix, word the start of a tailed frame's body
	// (magic, version byte, tail length). Fields rather than locals because
	// a buffer handed to an io.Reader escapes.
	prefix [FrameHeaderBytes]byte
	word   [frameBodyMin + tailLenBytes]byte
	// names is the stream's address strings, read by Next's goroutine only.
	names nameCache
	// partial is set while Next is inside a frame, and stays set when Next
	// fails there (Partial).
	partial bool
}

// readBufBytes sizes a FrameReader's buffer — one per inbound connection,
// for the life of the connection. It is sized for heads: a control frame is
// under 1 KiB, so 16 KiB still takes a burst of them per read syscall,
// while anything larger does not pass through it at all — a bulk tail is
// read into the buffer posted or allocated for it, and a tail-less frame
// bigger than the buffer (a 768 KiB JM_CHECKPOINT) is read straight into
// its own allocation, bufio bypassing a buffer smaller than the read.
const readBufBytes = 16 << 10

// NewFrameReader wraps r; see FrameReader.post for post.
func NewFrameReader(r io.Reader, post func(head *msg.Message, n int) []byte) *FrameReader {
	return &FrameReader{br: bufio.NewReaderSize(r, readBufBytes), post: post, names: nameCache{seed: maphash.MakeSeed()}}
}

// Next reads one frame and returns its message and its size on the wire.
// The frame length, magic, version and tail length are each validated
// before any allocation made on their say-so, and no allocation exceeds
// MaxFrameBytes. io.EOF means the stream ended cleanly between frames; a
// stream that ends inside a frame returns io.ErrUnexpectedEOF.
func (fr *FrameReader) Next() (*msg.Message, int, error) {
	n, err := io.ReadFull(fr.br, fr.prefix[:])
	fr.partial = n > 0
	if err != nil {
		return nil, 0, err
	}
	frameLen := binary.BigEndian.Uint32(fr.prefix[:])
	if err := CheckFrameLen(frameLen); err != nil {
		return nil, 0, &FrameError{err}
	}
	// Magic and version are inspected where they sit in the read buffer, so
	// a frame without a tail — every small message — is then read in one
	// piece, exactly as before frames had tails.
	pre, err := fr.br.Peek(frameBodyMin)
	if err != nil {
		return nil, 0, midFrame(err)
	}
	tailed, err := checkPreamble(pre)
	if err != nil {
		return nil, 0, &FrameError{err}
	}
	var m *msg.Message
	if tailed {
		m, err = fr.readTailed(int(frameLen))
	} else {
		m, err = fr.readEnvelope(int(frameLen), frameBodyMin)
	}
	fr.partial = err != nil
	return m, FrameHeaderBytes + int(frameLen), err
}

// Partial reports whether the error Next last returned came partway through
// a frame — a frame cut off, not a stream that ended or failed between
// frames.
func (fr *FrameReader) Partial() bool { return fr.partial }

// readEnvelope reads n bytes and decodes the envelope that follows the
// first skip of them. The message's Payload aliases the buffer allocated
// here.
func (fr *FrameReader) readEnvelope(n, skip int) (*msg.Message, error) {
	buf := make([]byte, n)
	if err := fr.readFull(buf); err != nil {
		return nil, err
	}
	m, err := decodeMessage(buf[skip:], &fr.names)
	if err != nil {
		return nil, &FrameError{err}
	}
	return m, nil
}

// readTailed reads the n-byte body of a tailed frame: preamble and tail
// length, the envelope, then the tail — into the posted buffer when the
// consumer has one for this reply, into a fresh one otherwise.
func (fr *FrameReader) readTailed(n int) (*msg.Message, error) {
	if n < len(fr.word) {
		return nil, &FrameError{fmt.Errorf("wire: frame ends inside its tail length")}
	}
	if err := fr.readFull(fr.word[:]); err != nil {
		return nil, err
	}
	envLen, tailLen, err := splitTail(fr.word[frameBodyMin:], n-len(fr.word))
	if err != nil {
		return nil, &FrameError{err}
	}
	m, err := fr.readEnvelope(envLen, 0)
	if err != nil {
		return nil, err
	}
	var tail []byte
	if fr.post != nil {
		tail = fr.post(m, tailLen)
	}
	if len(tail) != tailLen {
		tail = make([]byte, tailLen)
	}
	if err := fr.readFull(tail); err != nil {
		return nil, err
	}
	m.Tail = tail
	return m, nil
}

// readFull fills p from inside a frame.
func (fr *FrameReader) readFull(p []byte) error {
	_, err := io.ReadFull(fr.br, p)
	return midFrame(err)
}

// midFrame is err as read inside a frame, where running out of stream is
// never a clean end.
func midFrame(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// EncodedSize returns the frame-body size m would occupy on the wire by
// actually encoding it into a pooled scratch buffer. SizeOf computes the
// same figure arithmetically; this form is kept as the test oracle.
func EncodedSize(m *msg.Message) int {
	buf := GetBuf()
	*buf = AppendMessage((*buf)[:0], m)
	n := len(*buf) + frameBodyMin + tailBytes(m)
	PutBuf(buf)
	return n
}

// tailBytes is what m's tail adds to its frame body: the length word and
// the bytes, or nothing.
func tailBytes(m *msg.Message) int {
	if len(m.Tail) == 0 {
		return 0
	}
	return tailLenBytes + len(m.Tail)
}

// uvarintLen is the encoded width of u as an unsigned varint.
func uvarintLen(u uint64) int {
	n := 1
	for u >= 0x80 {
		u >>= 7
		n++
	}
	return n
}

func stringLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

func addressLen(a msg.Address) int {
	return stringLen(a.Node) + stringLen(a.Job) + stringLen(a.Task)
}

// SizeOf computes the frame-body size m would occupy on the wire without
// materializing any bytes — O(fields) instead of an O(payload) copy. It
// mirrors AppendMessage's layout exactly (asserted by the wire tests) and
// is the MemNetwork's byte-accounting path: the simulated fabric charges
// real frame sizes without paying real encoding.
func SizeOf(m *msg.Message) int {
	n := frameBodyMin + tailBytes(m)
	n += uvarintLen(m.ID)
	n += uvarintLen(uint64(m.Kind))
	n += uvarintLen(m.CorrelID)
	n += addressLen(m.From)
	n += addressLen(m.To)
	n += uvarintLen(uint64(len(m.Headers)))
	for k, v := range m.Headers {
		n += stringLen(k) + stringLen(v)
	}
	n += uvarintLen(uint64(len(m.Payload))) + len(m.Payload)
	if !m.Trace.IsZero() {
		n += uvarintLen(m.Trace.TraceID)
		n += uvarintLen(m.Trace.SpanID)
		n += uvarintLen(m.Trace.ParentID)
	}
	return n
}
