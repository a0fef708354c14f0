// Package cosmicnet is the wire layer of CoSMIC's system software: a
// length-prefixed binary framing protocol over TCP that Sigma and Delta
// nodes use to exchange model parameters, partial gradient updates, and
// control messages. The paper's system targets commodity networking ("the
// nodes communicate through conventional TCP/IP stack via a NIC"); this
// package is the same design over Go's net.Conn.
package cosmicnet

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
)

// MsgType discriminates frames on the wire.
type MsgType uint8

// Message types.
const (
	// MsgHello registers a node with the director, carrying its listen
	// address.
	MsgHello MsgType = iota + 1
	// MsgConfig tells a node its role, group, peers, and training
	// hyperparameters.
	MsgConfig
	// MsgModel broadcasts the current model parameters for the next
	// mini-batch.
	MsgModel
	// MsgPartial carries a node's locally aggregated partial update to its
	// group Sigma node.
	MsgPartial
	// MsgGroupAggregate carries a group Sigma's combined partial to the
	// master Sigma.
	MsgGroupAggregate
	// MsgDone ends training.
	MsgDone
	// MsgAck acknowledges a control message.
	MsgAck
)

const (
	// MsgStats is the metrics-federation round trip on the Director's
	// control plane: an empty request from the director, answered by a
	// frame whose Text is the node's JSON status + Prometheus exposition.
	MsgStats MsgType = iota + 8
)

var msgNames = map[MsgType]string{
	MsgHello: "hello", MsgConfig: "config", MsgModel: "model",
	MsgPartial: "partial", MsgGroupAggregate: "group-aggregate",
	MsgDone: "done", MsgAck: "ack", MsgStats: "stats",
}

// String names the message type.
func (t MsgType) String() string {
	if s, ok := msgNames[t]; ok {
		return s
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// DataFrame reports whether t carries vector payload (model broadcasts,
// partial updates, group aggregates) as opposed to control traffic. The
// chaos transport's data-only fault rules key on this split: dropping a
// partial degrades a round, dropping a MsgDone wedges shutdown.
func (t MsgType) DataFrame() bool {
	return t == MsgModel || t == MsgPartial || t == MsgGroupAggregate
}

// TypeOf extracts the message type from a raw wire type byte, stripping the
// extension flags. It lets frame-boundary middleware (the chaos transport)
// classify frames without knowing the flag layout.
func TypeOf(typeByte byte) MsgType { return MsgType(typeByte &^ flagMask) }

// Frame is one protocol message.
type Frame struct {
	Type MsgType
	// Seq is the mini-batch sequence number (for Model/Partial frames).
	Seq uint32
	// From is the sender's node ID.
	From uint32
	// Weight is the aggregation credit a Partial/GroupAggregate carries
	// (number of node partials behind the payload).
	Weight float64
	// Payload is the vector body for data frames or an encoded control
	// blob for control frames.
	Payload []float64
	// Text carries small string payloads (e.g. the Hello listen address).
	Text string
	// TraceID identifies the distributed operation (one training round)
	// this frame belongs to; SpanID identifies the individual send, so a
	// trace merger can draw a flow arrow from the sender's span to every
	// receiver's span. Both are optional: a frame with neither set encodes
	// byte-identically to the pre-trace wire format.
	TraceID, SpanID uint64
	// ChunkIndex/ChunkCount/ChunkOffset carry the streaming-aggregation
	// chunk extension: a data frame whose Payload is chunk ChunkIndex of
	// ChunkCount fixed-boundary sub-vectors of one contribution, starting
	// at element ChunkOffset of the full vector. A frame is chunked iff
	// ChunkCount > 0; unchunked frames encode byte-identically to the
	// pre-chunk wire format.
	ChunkIndex, ChunkCount, ChunkOffset uint32
}

// Chunked reports whether the frame carries the chunk extension.
func (f *Frame) Chunked() bool { return f.ChunkCount > 0 }

// MaxFrameBytes is the default bound on a frame's wire size; a frame larger
// than this is corrupt (the largest legitimate payload is a full model
// vector). SetMaxFrameBytes tightens or relaxes the bound at runtime.
const MaxFrameBytes = 256 << 20

// frameCap is the live frame-size bound, checked on both encode and decode
// before any allocation happens.
var frameCap atomic.Int64

func init() { frameCap.Store(MaxFrameBytes) }

// SetMaxFrameBytes bounds the wire size of every subsequently encoded or
// decoded frame. Receiving a length prefix above the bound fails the frame
// before allocating, so a corrupt or malicious peer cannot induce an
// arbitrarily large allocation. Values below the fixed header size or zero
// restore the default.
func SetMaxFrameBytes(n int) {
	if n < headerBytes {
		n = MaxFrameBytes
	}
	frameCap.Store(int64(n))
}

// FrameCap returns the current frame-size bound.
func FrameCap() int { return int(frameCap.Load()) }

// header: type(1) seq(4) from(4) weight(8) textLen(4) payloadLen(4)
const headerBytes = 25

// bufPool recycles encode/decode scratch buffers so steady-state frame I/O
// is allocation-free.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// getBuf returns a pooled byte slice of length n. The caller owns the
// buffer and must return it with putBuf.
//
//cosmic:owns
func getBuf(n int) *[]byte {
	bp := bufPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	return bp
}

func putBuf(bp *[]byte) { bufPool.Put(bp) }

// payloadPool recycles decoded payload vectors. The runtime returns a
// received chunk's payload here once it has been folded into the
// aggregation buffer, closing the loop so a streaming round recycles a
// handful of buffers instead of allocating one per frame.
var payloadPool = sync.Pool{
	New: func() any {
		p := make([]float64, 0)
		return &p
	},
}

// GetPayload returns a pooled []float64 of length n (contents undefined).
// The caller owns the buffer and must hand it back with PutPayload once it
// is folded or forwarded.
//
//cosmic:owns
func GetPayload(n int) []float64 {
	pp := payloadPool.Get().(*[]float64)
	p := *pp
	if cap(p) < n {
		p = make([]float64, n)
	}
	return p[:n]
}

// PutPayload recycles a payload slice obtained from GetPayload or a decoded
// frame. The caller must not use the slice afterwards.
func PutPayload(p []float64) {
	if cap(p) == 0 {
		return
	}
	p = p[:0]
	payloadPool.Put(&p)
}

// WriteFrame encodes and writes one frame.
func WriteFrame(w io.Writer, f *Frame) error {
	return writeFrame(w, f, nil)
}

// writeFrame encodes and writes one frame. The header, extensions and text
// go into a pooled buffer; the payload goes out straight from the vector's
// memory, in the same vectored write (writev on TCP). When sent
// is non-nil the frame's bytes are added to it before the write (and any
// unwritten tail taken back after), so a peer can never have counted bytes
// the sender has not. A writer that cannot take vectored writes sees one
// frame as two Writes, so concurrent senders must serialize (Conn.Send
// does).
func writeFrame(w io.Writer, f *Frame, sent *atomic.Int64) error {
	traced := f.TraceID != 0 || f.SpanID != 0
	chunked := f.ChunkCount > 0
	if !chunked && (f.ChunkIndex != 0 || f.ChunkOffset != 0) {
		return fmt.Errorf("cosmicnet: chunk index/offset set without chunk count")
	}
	if chunked && f.ChunkIndex >= f.ChunkCount {
		return fmt.Errorf("cosmicnet: chunk index %d out of range for count %d", f.ChunkIndex, f.ChunkCount)
	}
	ext := 0
	if traced {
		ext += traceExtBytes
	}
	if chunked {
		ext += chunkExtBytes
	}
	textLen := len(f.Text)
	total := int64(headerBytes+ext+textLen) + int64(len(f.Payload))*8
	if total > frameCap.Load() {
		return fmt.Errorf("cosmicnet: frame of %d bytes exceeds limit %d", total, FrameCap())
	}
	bp := getBuf(4 + headerBytes + ext + textLen)
	defer putBuf(bp)
	buf := *bp
	binary.LittleEndian.PutUint32(buf[0:], uint32(total))
	typeByte := byte(f.Type)
	if traced {
		typeByte |= flagTrace
	}
	if chunked {
		typeByte |= flagChunk
	}
	buf[4] = typeByte
	binary.LittleEndian.PutUint32(buf[5:], f.Seq)
	binary.LittleEndian.PutUint32(buf[9:], f.From)
	binary.LittleEndian.PutUint64(buf[13:], math.Float64bits(f.Weight))
	binary.LittleEndian.PutUint32(buf[21:], uint32(textLen))
	binary.LittleEndian.PutUint32(buf[25:], uint32(len(f.Payload)))
	off := 4 + headerBytes
	if traced {
		binary.LittleEndian.PutUint64(buf[off:], f.TraceID)
		binary.LittleEndian.PutUint64(buf[off+8:], f.SpanID)
		off += traceExtBytes
	}
	if chunked {
		binary.LittleEndian.PutUint32(buf[off:], f.ChunkIndex)
		binary.LittleEndian.PutUint32(buf[off+4:], f.ChunkCount)
		binary.LittleEndian.PutUint32(buf[off+8:], f.ChunkOffset)
	}
	copy(buf[len(buf)-textLen:], f.Text)
	if sent == nil {
		_, err := writeFramed(w, buf, f.Payload)
		return err
	}
	sent.Add(4 + total)
	n, err := writeFramed(w, buf, f.Payload)
	sent.Add(n - (4 + total))
	return err
}

// ReadFrame reads and decodes one frame into f, reusing f.Payload's
// capacity when it suffices. Every field of f is overwritten, so a caller
// that keeps a decoded frame past its next read passes a fresh one.
func ReadFrame(r io.Reader, f *Frame) error {
	_, err := readFrameInto(r, f)
	return err
}

// readFrameInto reports the bytes consumed. The length prefix, header,
// extensions and text land in one pooled staging buffer; the payload bytes
// are read straight into f.Payload, and only once the frame has passed
// every check.
func readFrameInto(r io.Reader, f *Frame) (int, error) {
	bp := getBuf(4 + headerBytes)
	defer putBuf(bp)
	// A frame shorter than the fixed header is corrupt, so reading the
	// prefix and header together never waits on bytes of the next frame.
	if _, err := io.ReadFull(r, *bp); err != nil {
		return 0, err
	}
	buf := *bp
	total := binary.LittleEndian.Uint32(buf)
	// Bound the length prefix before allocating anything: a corrupt peer
	// must not be able to induce an arbitrarily large allocation.
	if total < headerBytes || int64(total) > frameCap.Load() {
		return 4 + headerBytes, fmt.Errorf("cosmicnet: bad frame length %d (cap %d)", total, FrameCap())
	}
	hdr := buf[4:]
	traced := hdr[0]&flagTrace != 0
	chunked := hdr[0]&flagChunk != 0
	ext := 0
	if traced {
		ext += traceExtBytes
	}
	if chunked {
		ext += chunkExtBytes
	}
	textLen := binary.LittleEndian.Uint32(hdr[17:])
	payloadLen := binary.LittleEndian.Uint32(hdr[21:])
	// The consistency check is done in 64-bit arithmetic: payloadLen*8 in
	// uint32 can wrap (e.g. payloadLen = 2^29) and match total, which would
	// size the payload read past the frame.
	if int64(total) != int64(headerBytes)+int64(ext)+int64(textLen)+int64(payloadLen)*8 {
		return 4 + headerBytes, fmt.Errorf("cosmicnet: inconsistent frame: total %d, ext %d, text %d, payload %d",
			total, ext, textLen, payloadLen)
	}
	f.Type = MsgType(hdr[0] &^ flagMask)
	f.Seq = binary.LittleEndian.Uint32(hdr[1:])
	f.From = binary.LittleEndian.Uint32(hdr[5:])
	f.Weight = math.Float64frombits(binary.LittleEndian.Uint64(hdr[9:]))
	// Extensions and text follow; the staging buffer takes them over the
	// decoded header.
	rest := ext + int(textLen)
	read := 4 + headerBytes + rest
	if cap(buf) < rest {
		*bp = make([]byte, rest)
	}
	tail := (*bp)[:rest]
	if _, err := io.ReadFull(r, tail); err != nil {
		return 4 + headerBytes, err
	}
	off := 0
	f.TraceID, f.SpanID = 0, 0
	if traced {
		f.TraceID = binary.LittleEndian.Uint64(tail[off:])
		f.SpanID = binary.LittleEndian.Uint64(tail[off+8:])
		off += traceExtBytes
	}
	f.ChunkIndex, f.ChunkCount, f.ChunkOffset = 0, 0, 0
	if chunked {
		f.ChunkIndex = binary.LittleEndian.Uint32(tail[off:])
		f.ChunkCount = binary.LittleEndian.Uint32(tail[off+4:])
		f.ChunkOffset = binary.LittleEndian.Uint32(tail[off+8:])
		off += chunkExtBytes
		if f.ChunkCount == 0 || f.ChunkIndex >= f.ChunkCount {
			return read, fmt.Errorf("cosmicnet: bad chunk extension: index %d, count %d", f.ChunkIndex, f.ChunkCount)
		}
	}
	f.Text = string(tail[off:])
	n := int(payloadLen)
	if f.Payload == nil || cap(f.Payload) < n {
		// make([]float64, 0) is allocation-free and non-nil, keeping decoded
		// frames uniform (a decoded payload is never nil, as before).
		f.Payload = make([]float64, n)
	} else {
		f.Payload = f.Payload[:n]
	}
	if err := readPayload(r, f.Payload); err != nil {
		return read, err
	}
	return 4 + int(total), nil
}

// Conn wraps a net.Conn with frame I/O and byte accounting (the
// communication-volume numbers Figures 13/14 reason about).
type Conn struct {
	net.Conn
	// sendMu keeps each frame's bytes contiguous on the stream: a frame
	// is two Writes on a conn that cannot take vectored writes.
	sendMu         sync.Mutex
	sent, received atomic.Int64
}

// Dial connects to a peer node.
func Dial(addr string) (*Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Conn{Conn: c}, nil
}

// Send writes one frame. It is safe for concurrent use; frames from
// concurrent senders go out whole, one after another.
func (c *Conn) Send(f *Frame) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	return writeFrame(c.Conn, f, &c.sent)
}

// Recv reads one frame into f, reusing f.Payload's capacity. Every field
// of f is overwritten, so a caller that keeps a received frame past its
// next receive passes a fresh one.
func (c *Conn) Recv(f *Frame) error {
	n, err := readFrameInto(c.Conn, f)
	c.received.Add(int64(n))
	return err
}

// BytesSent returns the total frame bytes written on this connection.
func (c *Conn) BytesSent() int64 { return c.sent.Load() }

// BytesReceived returns the total frame bytes read on this connection.
func (c *Conn) BytesReceived() int64 { return c.received.Load() }

// Listener accepts framed connections.
type Listener struct {
	net.Listener
}

// Listen opens a TCP listener on addr ("127.0.0.1:0" for an ephemeral
// port).
func Listen(addr string) (*Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Listener{Listener: l}, nil
}

// AcceptConn accepts the next framed connection.
func (l *Listener) AcceptConn() (*Conn, error) {
	c, err := l.Accept()
	if err != nil {
		return nil, err
	}
	return &Conn{Conn: c}, nil
}
