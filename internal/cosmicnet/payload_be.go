//go:build !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package cosmicnet

import (
	"encoding/binary"
	"io"
	"math"
)

// Big-endian hosts byte-swap each payload element through a pooled buffer,
// so the wire stays little-endian everywhere. payload_le.go holds the
// copy-free pair.

// writeFramed writes hdr followed by p's wire bytes in one Write.
func writeFramed(w io.Writer, hdr []byte, p []float64) (int64, error) {
	bp := getBuf(len(hdr) + len(p)*8)
	defer putBuf(bp)
	buf := *bp
	off := copy(buf, hdr)
	for _, v := range p {
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
		off += 8
	}
	n, err := w.Write(buf)
	return int64(n), err
}

// readPayload fills p from the next len(p)*8 bytes of r.
func readPayload(r io.Reader, p []float64) error {
	bp := getBuf(len(p) * 8)
	defer putBuf(bp)
	buf := *bp
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	for i := range p {
		p[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return nil
}
