//go:build 386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

package cosmicnet

import (
	"io"
	"net"
	"sync"
	"unsafe"
)

// On little-endian hosts a []float64's memory already is its wire
// encoding, so payloads are written from and read into the vector itself.
// payload_be.go holds the per-element pair for big-endian hosts.

// payloadBytes views p's memory as bytes.
func payloadBytes(p []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(p))), len(p)*8)
}

// frameVec is the reusable storage of one vectored write.
type frameVec struct {
	parts [2][]byte
	bufs  net.Buffers
}

var vecPool = sync.Pool{New: func() any { return new(frameVec) }}

// writeFramed writes hdr followed by p's wire bytes, as one writev where w
// supports it.
func writeFramed(w io.Writer, hdr []byte, p []float64) (int64, error) {
	if len(p) == 0 {
		n, err := w.Write(hdr)
		return int64(n), err
	}
	v := vecPool.Get().(*frameVec)
	v.parts = [2][]byte{hdr, payloadBytes(p)}
	v.bufs = v.parts[:]
	n, err := v.bufs.WriteTo(w)
	// Drop the references to the caller's memory before pooling.
	v.parts, v.bufs = [2][]byte{}, nil
	vecPool.Put(v)
	return n, err
}

// readPayload fills p from the next len(p)*8 bytes of r.
func readPayload(r io.Reader, p []float64) error {
	_, err := io.ReadFull(r, payloadBytes(p))
	return err
}
