// Connection preamble: the bytes a dialer writes on a new connection before
// its first frame. They name the dialing node, so the node that accepts the
// connection can write its own frames to the dialer back on the same socket
// (docs/WIRE.md, One connection per node pair). Only a dialer writes one.
//
//	preamble := 'C' 'N' ConnVersion namelen(1 byte, 1..MaxPeerName) name

package wire

import (
	"errors"
	"fmt"
	"io"
)

// ConnVersion is the version a connection preamble carries. Version 10
// introduced the preamble; frames and payloads still carry Version, and
// their bytes did not change with it.
const ConnVersion = 10

// MaxPeerName bounds the node name a preamble carries.
const MaxPeerName = 128

// preambleHead is the preamble's fixed part: magic, version, name length.
const preambleHead = 4

// MaxPreambleBytes is the longest preamble: the buffer ReadConnPreamble needs.
const MaxPreambleBytes = preambleHead + MaxPeerName

// AppendConnPreamble appends the preamble announcing node to dst. A name
// longer than MaxPeerName, or an empty one, is an error: no acceptor would
// take it.
func AppendConnPreamble(dst []byte, node string) ([]byte, error) {
	if len(node) == 0 || len(node) > MaxPeerName {
		return dst, fmt.Errorf("wire: node name of %d bytes cannot be announced (1 to %d)", len(node), MaxPeerName)
	}
	dst = append(dst, Magic0, Magic1, ConnVersion, byte(len(node)))
	return append(dst, node...), nil
}

// ReadConnPreamble reads one preamble off r into buf, which must hold
// MaxPreambleBytes, and returns the announced name as a slice of buf. It
// reads exactly the preamble's bytes and allocates nothing. A stream that
// ends before its first byte returns io.EOF; a preamble that is malformed —
// foreign magic, another version, a name of length 0 or over MaxPeerName —
// or that ends partway is a *FrameError; any other error is r's.
func ReadConnPreamble(r io.Reader, buf []byte) ([]byte, error) {
	head := buf[:preambleHead]
	if n, err := io.ReadFull(r, head); err != nil {
		return nil, truncated(n, err)
	}
	if head[0] != Magic0 || head[1] != Magic1 {
		return nil, errPreambleMagic
	}
	if head[2] != ConnVersion {
		return nil, errPreambleVersion
	}
	size := int(head[3])
	if size == 0 || size > MaxPeerName {
		return nil, errPreambleName
	}
	name := buf[preambleHead : preambleHead+size]
	if _, err := io.ReadFull(r, name); err != nil {
		return nil, truncated(1, err)
	}
	return name, nil
}

// The malformed preambles, allocated once: a peer that sends one costs the
// acceptor nothing but the read.
var (
	errPreambleMagic     = &FrameError{errors.New("wire: bad preamble magic")}
	errPreambleVersion   = &FrameError{fmt.Errorf("wire: preamble version not supported (want %d)", ConnVersion)}
	errPreambleName      = &FrameError{fmt.Errorf("wire: preamble name length not in 1 to %d", MaxPeerName)}
	errPreambleTruncated = &FrameError{errors.New("wire: stream ends inside its preamble")}
)

// truncated is err from a read that got n bytes of a preamble: the stream
// ending partway is a malformed preamble, ending before it a clean io.EOF.
func truncated(n int, err error) error {
	if n > 0 && (err == io.EOF || err == io.ErrUnexpectedEOF) {
		return errPreambleTruncated
	}
	return err
}
