package cosmicnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// fullFeatureFrame builds a frame exercising every wire extension at once:
// trace IDs, the chunk extension, text, and a payload large enough that its
// read buffer comes from the pool's upper classes.
func fullFeatureFrame() *Frame {
	p := make([]float64, 1024)
	for i := range p {
		p[i] = float64(i) * 0.5
	}
	return &Frame{
		Type: MsgGroupAggregate, Seq: 3, From: 9, Weight: 2.5,
		Text: "meta", TraceID: 0xabcdef, SpanID: 0x123456,
		ChunkIndex: 2, ChunkCount: 8, ChunkOffset: 8192,
		Payload: p,
	}
}

// TestTruncationAtEveryOffset cuts a chunked+traced frame's encoding at
// every byte boundary and asserts the reader fails each cut with a clean
// stream error — never a panic, a hang, or a bogus decode. The full
// encoding still decodes afterwards, proving the sweep covered a valid
// frame.
func TestTruncationAtEveryOffset(t *testing.T) {
	var enc bytes.Buffer
	if err := WriteFrame(&enc, fullFeatureFrame()); err != nil {
		t.Fatal(err)
	}
	raw := enc.Bytes()
	for cut := 0; cut < len(raw); cut++ {
		_, err := decode(bytes.NewReader(raw[:cut]))
		if err == nil {
			t.Fatalf("cut at byte %d/%d decoded successfully", cut, len(raw))
		}
		if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at byte %d/%d: %v, want a stream error", cut, len(raw), err)
		}
	}
	got, err := decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 3 || got.ChunkCount != 8 || got.Text != "meta" || len(got.Payload) != 1024 {
		t.Fatalf("full decode corrupted: %+v", got)
	}
}

// TestTruncatedReadReturnsPoolBuffer: the error path of a truncated body
// read must still return its staging buffer to the pool. A leak would force
// a fresh pool buffer on every failed read (≥2 allocs per attempt); with the
// pool intact only the decoded text string allocates (1).
func TestTruncatedReadReturnsPoolBuffer(t *testing.T) {
	var enc bytes.Buffer
	if err := WriteFrame(&enc, fullFeatureFrame()); err != nil {
		t.Fatal(err)
	}
	raw := enc.Bytes()
	cut := raw[:len(raw)/2]
	// Warm the pool class once.
	if _, err := decode(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(cut)
	var f Frame
	allocs := testing.AllocsPerRun(200, func() {
		r.Reset(cut)
		if err := ReadFrame(r, &f); err == nil {
			t.Fatal("truncated read succeeded")
		}
	})
	if allocs > 1.5 {
		t.Errorf("truncated read allocates %.1f per attempt; the staging buffer is leaking from the pool", allocs)
	}
}

// TestCorruptHeaderRejected: corruption the truncation sweep cannot reach —
// length prefixes and header fields that lie about the body.
func TestCorruptHeaderRejected(t *testing.T) {
	var enc bytes.Buffer
	if err := WriteFrame(&enc, fullFeatureFrame()); err != nil {
		t.Fatal(err)
	}
	raw := enc.Bytes()
	mutate := func(mut func(b []byte)) []byte {
		b := append([]byte(nil), raw...)
		mut(b)
		return b
	}
	cases := []struct {
		name string
		b    []byte
	}{
		{"length below header", mutate(func(b []byte) {
			binary.LittleEndian.PutUint32(b, 5)
		})},
		{"length above cap", mutate(func(b []byte) {
			binary.LittleEndian.PutUint32(b, 0xFFFFFFFF)
		})},
		{"text length lies", mutate(func(b []byte) {
			// textLen lives at byte 17 of the header, after the 4-byte
			// length prefix.
			binary.LittleEndian.PutUint32(b[4+17:], 9999)
		})},
		{"payload length wraps 32 bits", mutate(func(b []byte) {
			// payloadLen*8 wraps uint32 at 1<<29; the reader must do the
			// consistency check in 64-bit arithmetic.
			binary.LittleEndian.PutUint32(b[4+21:], 1<<29)
		})},
		{"chunk count zero with chunk flag", mutate(func(b []byte) {
			off := 4 + headerBytes + traceExtBytes
			binary.LittleEndian.PutUint32(b[off+4:], 0)
		})},
		{"chunk index beyond count", mutate(func(b []byte) {
			off := 4 + headerBytes + traceExtBytes
			binary.LittleEndian.PutUint32(b[off:], 8)
		})},
	}
	for _, c := range cases {
		if _, err := decode(bytes.NewReader(c.b)); err == nil {
			t.Errorf("%s: decoded successfully", c.name)
		}
	}
}
