package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/codec"
	"repro/internal/relation"
)

// A snapshot file snap-<lsn>.snap holds every relation's sorted base rows as
// of log position lsn:
//
//	magic    8 bytes
//	uint64   body length (big-endian)
//	uint32   CRC-32 (IEEE) of the body
//	body     uvarint lsn, relation count, then per relation: name, arity,
//	         chunk count, and row chunks (wire varint tuple lists)
//
// Rows are split into chunks of roughly snapChunkRows tuples, with each cut
// grown forward past the last row sharing the cut row's first attribute, so
// every first-attribute value's rows sit in one chunk and a chunk is a
// self-contained unit a later out-of-core backend can page independently.
// Snapshots are written to a temp file, fsynced, and renamed into place, so
// a crash mid-checkpoint leaves at most a stale *.tmp file and never a
// half-written snapshot under the live name.

// snapChunkRows is the target rows per snapshot chunk.
const snapChunkRows = 32 << 10

// SnapRelation is one relation restored from a snapshot.
type SnapRelation struct {
	Name   string
	Arity  int
	Tuples [][]int64
}

// writeSnapshot durably writes rels as the snapshot at lsn and returns its
// final path.
func writeSnapshot(dir string, lsn uint64, rels []*relation.Relation) (string, error) {
	sorted := append([]*relation.Relation(nil), rels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name() < sorted[j].Name() })

	var e codec.Enc
	e.U64(lsn)
	e.Int(len(sorted))
	for _, r := range sorted {
		e.Str(r.Name())
		e.Int(r.Arity())
		cuts := chunkCuts(r)
		e.Int(len(cuts) - 1)
		for c := 0; c+1 < len(cuts); c++ {
			lo, hi := cuts[c], cuts[c+1]
			e.U64(uint64(hi - lo))
			for i := lo; i < hi; i++ {
				e.Tuple(r.Tuple(i))
			}
		}
	}
	body := e.Bytes()

	hdr := make([]byte, len(snapMagic)+12)
	copy(hdr, snapMagic)
	binary.BigEndian.PutUint64(hdr[len(snapMagic):], uint64(len(body)))
	binary.BigEndian.PutUint32(hdr[len(snapMagic)+8:], crc32.ChecksumIEEE(body))

	final := snapPath(dir, lsn)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return "", err
	}
	_, err = f.Write(hdr)
	if err == nil {
		_, err = f.Write(body)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, final)
	}
	if err != nil {
		os.Remove(tmp)
		return "", err
	}
	syncDir(dir)
	return final, nil
}

// chunkCuts returns row-index boundaries [0, ..., Len] splitting r into
// chunks of about snapChunkRows rows, each cut aligned to a first-attribute
// boundary so no key's row group straddles two chunks.
func chunkCuts(r *relation.Relation) []int {
	n := r.Len()
	cuts := []int{0}
	for end := 0; end < n; {
		end += snapChunkRows
		if end >= n {
			end = n
		} else {
			for end < n && r.Value(end, 0) == r.Value(end-1, 0) {
				end++
			}
		}
		cuts = append(cuts, end)
	}
	if n == 0 {
		cuts = append(cuts, 0)
	}
	return cuts
}

// readSnapshot loads and validates one snapshot file.
func readSnapshot(path string) (lsn uint64, rels []SnapRelation, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, err
	}
	base := filepath.Base(path)
	hdrLen := len(snapMagic) + 12
	if len(data) < hdrLen || string(data[:len(snapMagic)]) != snapMagic {
		return 0, nil, fmt.Errorf("%s: bad snapshot header", base)
	}
	bodyLen := binary.BigEndian.Uint64(data[len(snapMagic):])
	if bodyLen != uint64(len(data)-hdrLen) {
		return 0, nil, fmt.Errorf("%s: snapshot body is %d bytes, header says %d", base, len(data)-hdrLen, bodyLen)
	}
	body := data[hdrLen:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(data[len(snapMagic)+8:]) {
		return 0, nil, fmt.Errorf("%s: snapshot CRC mismatch", base)
	}

	d := codec.NewDec(body)
	lsn = d.U64()
	nRels := d.Count()
	rels = make([]SnapRelation, 0, nRels)
	for i := 0; i < nRels; i++ {
		name := d.Str()
		arity := d.Int()
		nChunks := d.Count()
		var tuples [][]int64
		for c := 0; c < nChunks; c++ {
			tuples = append(tuples, d.Tuples()...)
		}
		if d.Err() != nil {
			break
		}
		if arity < 1 {
			return 0, nil, fmt.Errorf("%s: relation %q has arity %d", base, name, arity)
		}
		for _, t := range tuples {
			if len(t) != arity {
				return 0, nil, fmt.Errorf("%s: relation %q tuple width %d != arity %d", base, name, len(t), arity)
			}
		}
		rels = append(rels, SnapRelation{Name: name, Arity: arity, Tuples: tuples})
	}
	if err := d.Err(); err != nil {
		return 0, nil, fmt.Errorf("%s: %w", base, err)
	}
	return lsn, rels, nil
}
