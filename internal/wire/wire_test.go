package wire

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/query"
)

// TestFrameRoundTrip pins the frame layout: type, request id, and payload
// survive a write/read cycle, including empty bodies and large ids.
func TestFrameRoundTrip(t *testing.T) {
	cases := []struct {
		typ   byte
		reqID uint64
		body  []byte
	}{
		{THello, 1, []byte("payload")},
		{TOK, 0, nil},
		{TRowChunk, 1 << 60, bytes.Repeat([]byte{0xab}, 4096)},
	}
	var buf bytes.Buffer
	for _, c := range cases {
		if err := WriteFrame(&buf, c.typ, c.reqID, c.body); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range cases {
		typ, id, body, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if typ != c.typ || id != c.reqID || !bytes.Equal(body, c.body) {
			t.Fatalf("frame round trip: got (0x%02x, %d, %d bytes), want (0x%02x, %d, %d bytes)",
				typ, id, len(body), c.typ, c.reqID, len(c.body))
		}
	}
}

// TestFrameTruncated pins the error behavior on short reads: a frame cut off
// mid-header or mid-payload reports an unexpected EOF, never a partial frame.
func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, TCount, 7, []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut++ {
		_, _, _, err := ReadFrame(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d of %d bytes not detected", cut, len(full))
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
			t.Fatalf("truncation at %d: unexpected error %v", cut, err)
		}
	}
}

// TestFrameOversize rejects frames beyond MaxFrame on both ends without
// allocating the declared size.
func TestFrameOversize(t *testing.T) {
	if err := WriteFrame(io.Discard, TLoad, 1, make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("write oversize: got %v, want ErrFrameTooLarge", err)
	}
	hdr := []byte{0xff, 0xff, 0xff, 0xff, TLoad}
	if _, _, _, err := ReadFrame(bytes.NewReader(hdr)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("read oversize: got %v, want ErrFrameTooLarge", err)
	}
}

// TestPayloadRoundTrip drives every Enc/Dec primitive through one payload.
func TestPayloadRoundTrip(t *testing.T) {
	var e Enc
	e.U64(0)
	e.U64(1 << 62)
	e.Int(12345)
	e.I64(-9e15)
	e.Bool(true)
	e.Bool(false)
	e.Str("")
	e.Str("edge")
	e.StrList([]string{"a", "b", "c"})
	e.StrList(nil)
	e.Tuple([]int64{1, -2, 3})
	e.Tuples([][]int64{{1, 2}, {3, 4}, {}})
	e.Tuples(nil)

	d := NewDec(e.Bytes())
	if got := d.U64(); got != 0 {
		t.Fatalf("U64 = %d", got)
	}
	if got := d.U64(); got != 1<<62 {
		t.Fatalf("U64 = %d", got)
	}
	if got := d.Int(); got != 12345 {
		t.Fatalf("Int = %d", got)
	}
	if got := d.I64(); got != -9e15 {
		t.Fatalf("I64 = %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("Bool mismatch")
	}
	if got := d.Str(); got != "" {
		t.Fatalf("Str = %q", got)
	}
	if got := d.Str(); got != "edge" {
		t.Fatalf("Str = %q", got)
	}
	ss := d.StrList()
	if len(ss) != 3 || ss[0] != "a" || ss[2] != "c" {
		t.Fatalf("StrList = %v", ss)
	}
	if got := d.StrList(); got != nil {
		t.Fatalf("empty StrList = %v", got)
	}
	tu := d.Tuple()
	if len(tu) != 3 || tu[1] != -2 {
		t.Fatalf("Tuple = %v", tu)
	}
	ts := d.Tuples()
	if len(ts) != 3 || ts[1][1] != 4 || len(ts[2]) != 0 {
		t.Fatalf("Tuples = %v", ts)
	}
	if got := d.Tuples(); got != nil {
		t.Fatalf("empty Tuples = %v", got)
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestDecTruncatedCollections pins the corrupt-count guard: a collection
// count larger than the remaining payload fails instead of sizing an
// allocation.
func TestDecTruncatedCollections(t *testing.T) {
	var e Enc
	e.U64(1 << 40) // a count with no elements behind it
	for _, read := range []func(*Dec){
		func(d *Dec) { d.Str() },
		func(d *Dec) { d.StrList() },
		func(d *Dec) { d.Tuple() },
		func(d *Dec) { d.Tuples() },
	} {
		d := NewDec(e.Bytes())
		read(d)
		if d.Err() == nil {
			t.Fatal("corrupt count not detected")
		}
	}
}

// TestQueryRoundTrip pins the query transport: atoms, name, and — the part
// first-appearance ordering would silently lose — a head-fixed output
// variable order all survive.
func TestQueryRoundTrip(t *testing.T) {
	q, err := query.Parse("fof", "fof(c, b, a) :- follows(a, b), follows(b, c)")
	if err != nil {
		t.Fatal(err)
	}
	var e Enc
	FromQuery(q).Encode(&e)
	d := NewDec(e.Bytes())
	got, err := DecodeQuery(d).ToQuery()
	if err != nil {
		t.Fatal(err)
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	if got.Name != q.Name || got.String() != q.String() {
		t.Fatalf("query round trip: got %s %q, want %s %q", got.Name, got, q.Name, q)
	}
	if len(got.Vars()) != 3 || got.Vars()[0] != "c" || got.Vars()[2] != "a" {
		t.Fatalf("head order lost: %v", got.Vars())
	}
}

// TestExtendedQueryRoundTrip pins the protocol-version-2 query payload:
// projection heads, inline constants (desugared placeholders), comparison
// predicates — including negative constants, which the signed encoding must
// not clamp — and aggregate terms all survive transport and re-validation.
func TestExtendedQueryRoundTrip(t *testing.T) {
	for _, src := range []string{
		"out(a) :- e(a, b), e(b, c)",
		"e(3, b), e(b, c), b != 4",
		"deg(a, count(b), sum(b)) :- e(a, b), a >= 2, b < 9",
		"total(min(c), max(c)) :- e(a, b), e(b, c)",
	} {
		q, err := query.Parse("q", src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		var e Enc
		FromQuery(q).Encode(&e)
		d := NewDec(e.Bytes())
		got, err := DecodeQuery(d).ToQuery()
		if err != nil {
			t.Fatalf("%q: ToQuery: %v", src, err)
		}
		if d.Err() != nil {
			t.Fatalf("%q: %v", src, d.Err())
		}
		if got.String() != q.String() {
			t.Fatalf("%q round trip: got %q, want %q", src, got, q)
		}
	}
	// A hand-built predicate with a negative constant: the parser never emits
	// one (the storage domain is non-negative), but a peer may.
	q, err := query.NewRule("neg", []string{"a", "b"}, nil,
		[]query.Pred{{Left: "a", Op: query.OpGt, Const: -5}},
		query.Atom{Rel: "e", Vars: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	var e Enc
	FromQuery(q).Encode(&e)
	got, err := DecodeQuery(NewDec(e.Bytes())).ToQuery()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Preds) != 1 || got.Preds[0].Const != -5 {
		t.Fatalf("negative predicate constant clamped: %+v", got.Preds)
	}
}

// TestOptionsRoundTrip drives every Options field across the wire.
func TestOptionsRoundTrip(t *testing.T) {
	in := repro.Options{
		Algorithm:         repro.MS,
		Workers:           4,
		Granularity:       8,
		GAO:               []string{"b", "a"},
		Backend:           repro.BackendFlat,
		DisableProbeMemo:  true,
		DisableSkeleton:   true,
		DisableCountReuse: true,
		MaxRows:           1 << 20,
	}
	var e Enc
	EncodeOptions(&e, in)
	d := NewDec(e.Bytes())
	out := DecodeOptions(d)
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	if out.Algorithm != in.Algorithm || out.Workers != in.Workers ||
		out.Granularity != in.Granularity || len(out.GAO) != 2 || out.GAO[0] != "b" ||
		out.Backend != in.Backend || !out.DisableProbeMemo || out.DisableComplete ||
		!out.DisableSkeleton || !out.DisableCountReuse || out.MaxRows != in.MaxRows {
		t.Fatalf("options round trip: got %+v, want %+v", out, in)
	}
}

// TestStatsRoundTrip drives the counter snapshot across the wire.
func TestStatsRoundTrip(t *testing.T) {
	in := core.Stats{
		PlanCacheHits: 1, PlanCacheMisses: 2, GAODerivations: 3, IndexBindings: 4,
		Executions: 5, Outputs: 6, Seeks: 7, Probes: 8, ProbeMemoHits: 9,
		Constraints: 10, FreeTupleSteps: 11, ReuseHits: 12, MemoStores: 13,
	}
	var e Enc
	EncodeStats(&e, in)
	d := NewDec(e.Bytes())
	if out := DecodeStats(d); out != in || d.Err() != nil {
		t.Fatalf("stats round trip: got %+v (err %v), want %+v", out, d.Err(), in)
	}
}

// TestErrorCodes pins the typed-error mapping both ways: the public
// sentinels survive the encode/decode cycle for errors.Is, and unknown
// errors degrade to CodeInternal without losing their message.
func TestErrorCodes(t *testing.T) {
	for _, sentinel := range []error{
		repro.ErrUnknownRelation,
		repro.ErrArityMismatch,
		repro.ErrRelationExists,
		repro.ErrValueOutOfRange,
		repro.ErrUnknownAlgorithm,
		repro.ErrUnknownBackend,
		repro.ErrTxnUnplanned,
		repro.ErrForeignPrepared,
		context.Canceled,
		ErrShuttingDown,
		ErrUnknownStore,
	} {
		wrapped := errors.Join(sentinel) // a non-sentinel error wrapping it
		got := DecodeErr(EncodeErr(wrapped))
		if !errors.Is(got, sentinel) {
			t.Errorf("sentinel %v lost across the wire: decoded %v", sentinel, got)
		}
	}
	opaque := errors.New("some engine explosion")
	got := DecodeErr(EncodeErr(opaque))
	var we *Error
	if !errors.As(got, &we) || we.Code != CodeInternal || we.Msg != opaque.Error() {
		t.Errorf("opaque error: got %v", got)
	}
}
