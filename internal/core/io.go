package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"picpredict/internal/resilience"
	"picpredict/internal/sparse"
)

// Workload serialisation: the Dynamic Workload Generator's outputs can be
// saved once and replayed through the Simulation Platform many times (the
// paper's BE-SST integration consumes exactly these matrices).
//
// The current (v2) format is little-endian binary built from the
// checksummed frame layout of internal/resilience (len uint32 | payload |
// crc32c uint32):
//
//	magic "PICWKL02"
//	frame: ranks uint32 | frames uint32 | numParticles uint64 |
//	       sampleEvery uint32 | flags uint32 (bit0: ghost matrices present,
//	       bit1: migration matrices present)
//	per interval k, one frame:
//	       iteration int64 | realComp int64 × ranks |
//	       realComm count uint32, then (src uint32, dst uint32, n int64)× |
//	       [ghostComp int64 × ranks | ghostComm like realComm] |
//	       [migElemComm like realComm | migPartComm like realComm]
//
// Grouping each interval's rows into one checksummed frame is what makes a
// torn workload file salvageable: every interval in front of the damage is
// intact and ReadWorkloadSalvaged recovers it. The legacy v1 layout
// ("PICWKL01") stores the same matrices unframed and section-major; readers
// still accept it, but v1 damage is detected, not salvaged.
const (
	workloadMagic   = "PICWKL02"
	workloadMagicV1 = "PICWKL01"
)

// MaxRanks and MaxWorkloadFrames bound the header fields a reader accepts,
// so a corrupt or hostile header cannot force absurd allocations. MaxRanks
// is also the rank cap of every workload build (pipeline.MapperSpec.Build,
// sweep grids, picserve requests): each rank costs one int64 per frame in
// every matrix, so a request cannot size those past what a reader accepts.
const (
	MaxRanks          = 1 << 22
	MaxWorkloadFrames = 1 << 24
)

// workloadHeaderLen is the encoded v2 header payload size.
const workloadHeaderLen = 4 + 4 + 8 + 4 + 4

// Write serialises the workload to w in the v2 checksummed format.
func (wl *Workload) Write(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(workloadMagic); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	fw := resilience.NewFrameWriter(bw)
	frames := wl.RealComp.Frames()
	var flags uint32
	if wl.GhostComp != nil {
		flags |= 1
	}
	if wl.MigElemComm != nil {
		flags |= 2
	}
	var hdr [workloadHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(wl.Ranks))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(frames))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(wl.NumParticles))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(wl.SampleEvery))
	binary.LittleEndian.PutUint32(hdr[20:], flags)
	if err := fw.WriteFrame(hdr[:]); err != nil {
		return fmt.Errorf("core: writing workload header: %w", err)
	}
	its := wl.RealComp.Iterations()
	var buf []byte
	for k := 0; k < frames; k++ {
		buf = buf[:0]
		buf = binary.LittleEndian.AppendUint64(buf, uint64(its[k]))
		buf = appendCompRow(buf, wl.RealComp.Frame(k))
		buf = appendComm(buf, wl.RealComm.At(k))
		if wl.GhostComp != nil {
			buf = appendCompRow(buf, wl.GhostComp.Frame(k))
			buf = appendComm(buf, wl.GhostComm.At(k))
		}
		if wl.MigElemComm != nil {
			buf = appendComm(buf, wl.MigElemComm.At(k))
			buf = appendComm(buf, wl.MigPartComm.At(k))
		}
		if err := fw.WriteFrame(buf); err != nil {
			return fmt.Errorf("core: writing workload interval %d: %w", k, err)
		}
	}
	return bw.Flush()
}

func appendCompRow(buf []byte, row []int64) []byte {
	for _, v := range row {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	return buf
}

func appendComm(buf []byte, m *sparse.Matrix) []byte {
	es := m.Entries()
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(es)))
	for _, e := range es {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Src))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Dst))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Count))
	}
	return buf
}

// WriteLegacy serialises the workload in the unframed v1 layout — kept for
// interchange with consumers of the old format and for the backward-
// compatibility tests proving v2 readers still accept v1 files. The v1
// layout predates migration matrices and cannot carry them; a workload with
// migration data round-trips through v1 with that section dropped.
func (wl *Workload) WriteLegacy(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(workloadMagicV1); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	frames := wl.RealComp.Frames()
	var flags uint32
	if wl.GhostComp != nil {
		flags |= 1
	}
	for _, v := range []uint32{uint32(wl.Ranks), uint32(frames)} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(wl.NumParticles)); err != nil {
		return err
	}
	for _, v := range []uint32{uint32(wl.SampleEvery), flags} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	its := make([]int64, frames)
	for i, it := range wl.RealComp.Iterations() {
		its[i] = int64(it)
	}
	if err := binary.Write(bw, binary.LittleEndian, its); err != nil {
		return err
	}
	if err := writeComp(bw, wl.RealComp); err != nil {
		return err
	}
	if err := writeComm(bw, wl.RealComm); err != nil {
		return err
	}
	if wl.GhostComp != nil {
		if err := writeComp(bw, wl.GhostComp); err != nil {
			return err
		}
		if err := writeComm(bw, wl.GhostComm); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeComp(w io.Writer, c *CompMatrix) error {
	for k := 0; k < c.Frames(); k++ {
		if err := binary.Write(w, binary.LittleEndian, c.Frame(k)); err != nil {
			return err
		}
	}
	return nil
}

func writeComm(w io.Writer, s *sparse.Series) error {
	for k := 0; k < s.Frames(); k++ {
		es := s.At(k).Entries()
		if err := binary.Write(w, binary.LittleEndian, uint32(len(es))); err != nil {
			return err
		}
		for _, e := range es {
			if err := binary.Write(w, binary.LittleEndian, uint32(e.Src)); err != nil {
				return err
			}
			if err := binary.Write(w, binary.LittleEndian, uint32(e.Dst)); err != nil {
				return err
			}
			if err := binary.Write(w, binary.LittleEndian, e.Count); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReadWorkload parses a workload previously serialised with Write (v2) or
// WriteLegacy (v1). Damage anywhere fails the whole read; use
// ReadWorkloadSalvaged to recover the intact prefix of a torn v2 file.
func ReadWorkload(r io.Reader) (*Workload, error) {
	wl, damage, err := ReadWorkloadSalvaged(r)
	if err != nil {
		return nil, err
	}
	if damage != nil {
		return nil, damage
	}
	return wl, nil
}

// ReadWorkloadSalvaged parses a workload, tolerating a damaged v2 tail:
// it returns every intact interval plus the damage encountered (nil when
// the file is whole). err is non-nil only when nothing usable could be
// read — bad magic, a damaged header, or no intact intervals. v1 files are
// unframed, so their damage is detected but nothing is salvaged.
func ReadWorkloadSalvaged(r io.Reader) (wl *Workload, damage error, err error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, len(workloadMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, nil, fmt.Errorf("core: reading magic: %w", err)
	}
	switch string(magic) {
	case workloadMagic:
		return readWorkloadV2(br)
	case workloadMagicV1:
		wl, err := readWorkloadV1(br)
		return wl, nil, err
	default:
		return nil, nil, fmt.Errorf("core: bad magic %q (not a workload file)", magic)
	}
}

func readWorkloadV2(br *bufio.Reader) (wl *Workload, damage error, err error) {
	fr := resilience.NewFrameReader(br, 0)
	hdr, err := fr.ExpectFrame(workloadHeaderLen)
	if err != nil {
		return nil, nil, fmt.Errorf("core: reading workload header: %w", err)
	}
	ranks := binary.LittleEndian.Uint32(hdr[0:])
	frames := binary.LittleEndian.Uint32(hdr[4:])
	np := binary.LittleEndian.Uint64(hdr[8:])
	sampleEvery := binary.LittleEndian.Uint32(hdr[16:])
	flags := binary.LittleEndian.Uint32(hdr[20:])
	if ranks == 0 || frames == 0 {
		return nil, nil, errors.New("core: workload file has zero ranks or frames")
	}
	if ranks > MaxRanks || frames > MaxWorkloadFrames {
		return nil, nil, fmt.Errorf("core: workload header claims %d ranks × %d frames, beyond the supported maxima %d × %d (corrupt header?)",
			ranks, frames, MaxRanks, MaxWorkloadFrames)
	}
	wl = &Workload{
		Ranks:        int(ranks),
		NumParticles: int(np),
		SampleEvery:  int(sampleEvery),
		RealComp:     NewCompMatrix(int(ranks)),
		RealComm:     sparse.NewSeries(int(ranks)),
	}
	ghosts := flags&1 != 0
	if ghosts {
		wl.GhostComp = NewCompMatrix(int(ranks))
		wl.GhostComm = sparse.NewSeries(int(ranks))
	}
	migration := flags&2 != 0
	if migration {
		wl.MigElemComm = sparse.NewSeries(int(ranks))
		wl.MigPartComm = sparse.NewSeries(int(ranks))
	}
	accs := newFrameAccs(int(ranks))
	for k := 0; k < int(frames); k++ {
		payload, err := fr.ReadFrame()
		if err != nil {
			if err == io.EOF {
				err = &resilience.TruncatedError{Frame: fr.Frames(), Err: io.ErrUnexpectedEOF}
			}
			damage = fmt.Errorf("core: workload interval %d of %d: %w", k, frames, err)
			break
		}
		if err := parseWorkloadFrame(wl, payload, ghosts, migration, accs); err != nil {
			damage = fmt.Errorf("core: workload interval %d of %d: %w", k, frames, err)
			break
		}
	}
	if wl.RealComp.Frames() == 0 {
		return nil, nil, fmt.Errorf("core: no intact workload intervals: %w", damage)
	}
	return wl, damage, nil
}

// frameAccs are the reader's pooled accumulators, one per communication
// matrix of an interval: each frame's entries are summed into them (a file
// may repeat a cell or carry cancelling counts) and sealed, exactly as the
// generator seals what it fills.
type frameAccs struct{ real, ghost, migElem, migPart *sparse.Acc }

func newFrameAccs(ranks int) *frameAccs {
	return &frameAccs{sparse.NewAcc(ranks), sparse.NewAcc(ranks), sparse.NewAcc(ranks), sparse.NewAcc(ranks)}
}

// parseWorkloadFrame decodes one interval payload into wl, appending one
// frame to every matrix — all-or-nothing, so a malformed payload never
// leaves the matrices at different lengths.
func parseWorkloadFrame(wl *Workload, payload []byte, ghosts, migration bool, accs *frameAccs) error {
	p := payload
	take := func(n int) ([]byte, error) {
		if len(p) < n {
			return nil, fmt.Errorf("core: interval payload short by %d bytes", n-len(p))
		}
		b := p[:n]
		p = p[n:]
		return b, nil
	}
	b, err := take(8)
	if err != nil {
		return err
	}
	iteration := int(int64(binary.LittleEndian.Uint64(b)))

	readRow := func(row []int64) error {
		b, err := take(8 * len(row))
		if err != nil {
			return err
		}
		for i := range row {
			row[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
		}
		return nil
	}
	readCommInto := func(a *sparse.Acc) error {
		a.Reset()
		b, err := take(4)
		if err != nil {
			return err
		}
		n := binary.LittleEndian.Uint32(b)
		for i := uint32(0); i < n; i++ {
			e, err := take(16)
			if err != nil {
				return err
			}
			src := int(binary.LittleEndian.Uint32(e[0:]))
			dst := int(binary.LittleEndian.Uint32(e[4:]))
			count := int64(binary.LittleEndian.Uint64(e[8:]))
			if err := a.Add(src, dst, count); err != nil {
				return fmt.Errorf("core: workload file entry out of range: %w", err)
			}
		}
		return nil
	}

	realRow := make([]int64, wl.Ranks)
	if err := readRow(realRow); err != nil {
		return err
	}
	if err := readCommInto(accs.real); err != nil {
		return err
	}
	var ghostRow []int64
	if ghosts {
		ghostRow = make([]int64, wl.Ranks)
		if err := readRow(ghostRow); err != nil {
			return err
		}
		if err := readCommInto(accs.ghost); err != nil {
			return err
		}
	}
	if migration {
		if err := readCommInto(accs.migElem); err != nil {
			return err
		}
		if err := readCommInto(accs.migPart); err != nil {
			return err
		}
	}
	if len(p) != 0 {
		return fmt.Errorf("core: interval payload has %d trailing bytes", len(p))
	}

	copy(wl.RealComp.AppendFrame(iteration), realRow)
	wl.RealComm.Append(accs.real.Seal())
	if ghosts {
		copy(wl.GhostComp.AppendFrame(iteration), ghostRow)
		wl.GhostComm.Append(accs.ghost.Seal())
	}
	if migration {
		wl.MigElemComm.Append(accs.migElem.Seal())
		wl.MigPartComm.Append(accs.migPart.Seal())
	}
	return nil
}

// readWorkloadV1 parses the legacy unframed layout.
func readWorkloadV1(br *bufio.Reader) (*Workload, error) {
	var ranks, frames, sampleEvery, flags uint32
	var np uint64
	for _, dst := range []any{&ranks, &frames} {
		if err := binary.Read(br, binary.LittleEndian, dst); err != nil {
			return nil, err
		}
	}
	if err := binary.Read(br, binary.LittleEndian, &np); err != nil {
		return nil, err
	}
	for _, dst := range []any{&sampleEvery, &flags} {
		if err := binary.Read(br, binary.LittleEndian, dst); err != nil {
			return nil, err
		}
	}
	if ranks == 0 || frames == 0 {
		return nil, errors.New("core: workload file has zero ranks or frames")
	}
	if ranks > MaxRanks || frames > MaxWorkloadFrames {
		return nil, fmt.Errorf("core: workload header claims %d ranks × %d frames, beyond the supported maxima %d × %d (corrupt header?)",
			ranks, frames, MaxRanks, MaxWorkloadFrames)
	}
	its := make([]int64, frames)
	if err := binary.Read(br, binary.LittleEndian, its); err != nil {
		return nil, err
	}
	wl := &Workload{
		Ranks:        int(ranks),
		NumParticles: int(np),
		SampleEvery:  int(sampleEvery),
	}
	var err error
	wl.RealComp, err = readComp(br, int(ranks), its)
	if err != nil {
		return nil, err
	}
	wl.RealComm, err = readComm(br, int(ranks), int(frames))
	if err != nil {
		return nil, err
	}
	if flags&1 != 0 {
		wl.GhostComp, err = readComp(br, int(ranks), its)
		if err != nil {
			return nil, err
		}
		wl.GhostComm, err = readComm(br, int(ranks), int(frames))
		if err != nil {
			return nil, err
		}
	}
	return wl, nil
}

func readComp(r io.Reader, ranks int, its []int64) (*CompMatrix, error) {
	c := NewCompMatrix(ranks)
	for _, it := range its {
		row := c.AppendFrame(int(it))
		if err := binary.Read(r, binary.LittleEndian, row); err != nil {
			return nil, fmt.Errorf("core: reading computation matrix: %w", err)
		}
	}
	return c, nil
}

func readComm(r io.Reader, ranks, frames int) (*sparse.Series, error) {
	s := sparse.NewSeries(ranks)
	m := sparse.NewAcc(ranks)
	for k := 0; k < frames; k++ {
		m.Reset()
		var n uint32
		if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
			return nil, fmt.Errorf("core: reading communication matrix: %w", err)
		}
		for i := uint32(0); i < n; i++ {
			var src, dst uint32
			var count int64
			if err := binary.Read(r, binary.LittleEndian, &src); err != nil {
				return nil, err
			}
			if err := binary.Read(r, binary.LittleEndian, &dst); err != nil {
				return nil, err
			}
			if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
				return nil, err
			}
			if err := m.Add(int(src), int(dst), count); err != nil {
				return nil, fmt.Errorf("core: workload file entry out of range: %w", err)
			}
		}
		s.Append(m.Seal())
	}
	return s, nil
}
