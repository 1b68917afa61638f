package trace

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"

	"picpredict/internal/geom"
)

func testHeader(np int) Header {
	return Header{
		NumParticles: np,
		SampleEvery:  100,
		Domain:       geom.Box(geom.V(0, 0, 0), geom.V(10, 10, 1)),
	}
}

func TestHeaderValidate(t *testing.T) {
	if err := testHeader(5).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Header{
		{NumParticles: 0, SampleEvery: 1, Domain: testHeader(1).Domain},
		{NumParticles: 1, SampleEvery: 0, Domain: testHeader(1).Domain},
		{NumParticles: 1, SampleEvery: 1, Domain: geom.EmptyBox()},
	}
	for i, h := range bad {
		if err := h.Validate(); err == nil {
			t.Errorf("bad header %d accepted", i)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	h := testHeader(3)
	w, err := NewWriter(&buf, h)
	if err != nil {
		t.Fatal(err)
	}
	frames := [][]geom.Vec3{
		{geom.V(1, 2, 0.5), geom.V(3, 4, 0.1), geom.V(5, 6, 0.9)},
		{geom.V(1.5, 2.5, 0.5), geom.V(3.5, 4.5, 0.1), geom.V(5.5, 6.5, 0.9)},
	}
	for i, f := range frames {
		if err := w.WriteFrame(i*100, f); err != nil {
			t.Fatal(err)
		}
	}
	if w.Frames() != 2 {
		t.Errorf("Frames = %d", w.Frames())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Header() != h {
		t.Errorf("header round trip: %+v != %+v", r.Header(), h)
	}
	dst := make([]geom.Vec3, 3)
	for i, f := range frames {
		it, err := r.Next(dst)
		if err != nil {
			t.Fatal(err)
		}
		if it != i*100 {
			t.Errorf("frame %d iteration = %d", i, it)
		}
		for j := range f {
			if dst[j].Sub(f[j]).Norm() > 1e-6 {
				t.Errorf("frame %d particle %d: %v != %v", i, j, dst[j], f[j])
			}
		}
	}
	if _, err := r.Next(dst); !errors.Is(err, io.EOF) {
		t.Errorf("after last frame: err = %v, want EOF", err)
	}
}

func TestWriterRejectsWrongFrameSize(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testHeader(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFrame(0, make([]geom.Vec3, 3)); err == nil {
		t.Error("oversized frame accepted")
	}
}

func TestReaderRejectsBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("NOTATRACE_AND_MORE_BYTES"))); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestReaderTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testHeader(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFrame(0, make([]geom.Vec3, 2)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	r, err := NewReader(bytes.NewReader(data[:len(data)-5])) // cut mid-frame
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Next(make([]geom.Vec3, 2))
	if err == nil || errors.Is(err, io.EOF) {
		t.Errorf("truncated frame: err = %v, want unexpected-EOF error", err)
	}
}

func TestReaderWrongDstSize(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, testHeader(2))
	_ = w.WriteFrame(0, make([]geom.Vec3, 2))
	_ = w.Flush()
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(make([]geom.Vec3, 5)); err == nil {
		t.Error("wrong dst size accepted")
	}
}

func TestReadAll(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, testHeader(2))
	for f := 0; f < 4; f++ {
		_ = w.WriteFrame(f*100, []geom.Vec3{geom.V(float64(f), 0, 0), geom.V(0, float64(f), 0)})
	}
	_ = w.Flush()
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	its, pos, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(its) != 4 || len(pos) != 8 {
		t.Fatalf("ReadAll: %d frames, %d positions", len(its), len(pos))
	}
	if its[3] != 300 || pos[6].X != 3 || pos[7].Y != 3 {
		t.Errorf("ReadAll content wrong: its=%v pos[6..8]=%v", its, pos[6:8])
	}
}

func TestFloat32PrecisionBounded(t *testing.T) {
	// Positions survive the float32 round trip to within relative 1e-6,
	// far below an element width in any realistic mesh.
	rng := rand.New(rand.NewSource(3))
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, testHeader(100))
	pos := make([]geom.Vec3, 100)
	for i := range pos {
		pos[i] = geom.V(rng.Float64()*10, rng.Float64()*10, rng.Float64())
	}
	_ = w.WriteFrame(0, pos)
	_ = w.Flush()
	r, _ := NewReader(&buf)
	got := make([]geom.Vec3, 100)
	if _, err := r.Next(got); err != nil {
		t.Fatal(err)
	}
	for i := range pos {
		if d := got[i].Sub(pos[i]).Norm(); d > 1e-5*math.Max(1, pos[i].Norm()) {
			t.Errorf("particle %d error %v too large", i, d)
		}
	}
}

func TestCompressedRoundTrip(t *testing.T) {
	h := testHeader(50)
	rng := rand.New(rand.NewSource(9))
	frames := make([][]geom.Vec3, 4)
	for f := range frames {
		frames[f] = make([]geom.Vec3, 50)
		for i := range frames[f] {
			frames[f][i] = geom.V(rng.Float64()*10, rng.Float64()*10, rng.Float64())
		}
	}

	var raw, packed bytes.Buffer
	w, err := NewWriter(&raw, h)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := NewCompressedWriter(&packed, h)
	if err != nil {
		t.Fatal(err)
	}
	for f, fr := range frames {
		if err := w.WriteFrame(f*100, fr); err != nil {
			t.Fatal(err)
		}
		if err := cw.WriteFrame(f*100, fr); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}

	// OpenReader handles both streams identically.
	for _, src := range []*bytes.Buffer{&raw, &packed} {
		r, err := OpenReader(bytes.NewReader(src.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		its, pos, err := r.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if len(its) != 4 {
			t.Fatalf("frames = %d", len(its))
		}
		for f := range frames {
			for i := range frames[f] {
				if pos[f*50+i].Sub(frames[f][i]).Norm() > 1e-5 {
					t.Fatalf("frame %d particle %d differs", f, i)
				}
			}
		}
	}
}

func TestOpenReaderErrors(t *testing.T) {
	if _, err := OpenReader(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream accepted")
	}
	// gzip magic but corrupt stream
	if _, err := OpenReader(bytes.NewReader([]byte{0x1f, 0x8b, 0x00, 0x01})); err == nil {
		t.Error("corrupt gzip accepted")
	}
}
