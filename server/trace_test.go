package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/trace"
	"repro/server"
)

// syncBuffer is a goroutine-safe slow-query log sink.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func traceTestStore(t *testing.T) *repro.Store {
	t.Helper()
	st := repro.NewStore()
	if err := st.DefineRelation("edge", 2); err != nil {
		t.Fatal(err)
	}
	edges := [][]int64{{1, 2}, {2, 3}, {3, 1}, {2, 4}, {4, 1}}
	if err := st.Load("edge", edges); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestSlowQueryLog pins the slow-query log contract: with a 1ns threshold
// every request crosses it, each offender is one parseable JSON line, and —
// because untraced requests are sampled at 1-in-1 — the line carries the
// span tree and the plan fingerprint.
func TestSlowQueryLog(t *testing.T) {
	ctx := context.Background()
	var log syncBuffer
	srv := server.New(server.Config{
		Stores: map[string]*repro.Store{server.DefaultStore: traceTestStore(t)},
		Trace: server.TraceConfig{
			SlowQuery:    time.Nanosecond,
			SlowQueryLog: &log,
			SampleEvery:  1,
		},
	})
	remote := dial(t, serve(t, srv))

	q, err := remote.ParseQuery("tri", "edge(a, b), edge(b, c), edge(c, a)")
	if err != nil {
		t.Fatal(err)
	}
	p, err := remote.Prepare(q, repro.Options{Algorithm: repro.LFTJ, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Count(ctx); err != nil {
		t.Fatal(err)
	}

	// The server writes a request's line after sending its response, so
	// the count's line may land just after Count returns.
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if strings.Contains(log.String(), `"type":"count"`) {
			break
		}
	}
	lines := strings.Split(strings.TrimSpace(log.String()), "\n")
	if len(lines) < 2 { // at least the prepare and the count
		t.Fatalf("slow-query log has %d lines, want >= 2:\n%s", len(lines), log.String())
	}
	var counted struct {
		Type        string             `json:"type"`
		TraceID     uint64             `json:"trace_id"`
		DurMs       float64            `json:"dur_ms"`
		Fingerprint string             `json:"fingerprint"`
		Spans       []trace.SpanRecord `json:"spans"`
	}
	found := false
	for _, line := range lines {
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal([]byte(line), &probe); err != nil {
			t.Fatalf("slow-query line is not JSON: %v\n%s", err, line)
		}
		if probe.Type == "count" {
			if err := json.Unmarshal([]byte(line), &counted); err != nil {
				t.Fatal(err)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("no count line in the slow-query log:\n%s", log.String())
	}
	if counted.TraceID == 0 {
		t.Error("sampled slow query has no trace id")
	}
	if counted.DurMs <= 0 {
		t.Errorf("dur_ms = %v, want > 0", counted.DurMs)
	}
	if !strings.Contains(counted.Fingerprint, "edge(a, b)") || !strings.Contains(counted.Fingerprint, "[lftj]") {
		t.Errorf("fingerprint %q missing query text or algorithm", counted.Fingerprint)
	}
	stages := map[string]bool{}
	for _, s := range counted.Spans {
		stages[s.Stage] = true
	}
	if !stages["server.count"] || !stages["engine.count"] {
		t.Errorf("slow count line spans = %v, want server.count + engine.count", stages)
	}
}

// TestClientTraceFetch pins the TTrace round trip: a client-traced request's
// spans are retained server-side and fetched by id, and Traces returns the
// retention buffer.
func TestClientTraceFetch(t *testing.T) {
	ctx := context.Background()
	remote := dial(t, serve(t, server.NewSingle(traceTestStore(t))))

	q, err := remote.ParseQuery("tri", "edge(a, b), edge(b, c), edge(c, a)")
	if err != nil {
		t.Fatal(err)
	}
	p, err := remote.Prepare(q, repro.Options{Algorithm: repro.LFTJ, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	tr := trace.New(trace.NewID())
	root := tr.StartSpan(0, "client.query")
	tctx := trace.NewContext(ctx, root)
	if _, err := p.Count(tctx); err != nil {
		t.Fatal(err)
	}
	// A traced streaming request joins the same trace.
	if _, err := collect(tctx, p.Enumerate); err != nil {
		t.Fatal(err)
	}
	root.End()

	spans, err := remote.Trace(ctx, uint64(tr.ID()))
	if err != nil {
		t.Fatal(err)
	}
	stages := map[string]int{}
	for _, s := range spans {
		if s.Trace != tr.ID() {
			t.Errorf("span %q has trace %d, want %d", s.Stage, s.Trace, tr.ID())
		}
		stages[s.Stage]++
	}
	for _, want := range []string{"server.count", "engine.count", "server.rows", "rows.stream", "engine.enumerate"} {
		if stages[want] == 0 {
			t.Errorf("fetched trace missing stage %q (got %v)", want, stages)
		}
	}
	// The count root parents at the client span that sent it.
	for _, s := range spans {
		if s.Stage == "server.count" && s.Parent != root.ID() {
			t.Errorf("server.count parent = %d, want client root %d", s.Parent, root.ID())
		}
	}

	// The engine.count span carries the Stats-derived attributes.
	foundOutputs := false
	for _, s := range spans {
		if s.Stage == "engine.count" {
			for _, a := range s.Attrs {
				if a.Key == "outputs" {
					foundOutputs = true
				}
			}
		}
	}
	if !foundOutputs {
		t.Error("engine.count span has no outputs attribute")
	}

	// Last-N fetch sees the retained traces.
	datas, err := remote.Traces(ctx, 10)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range datas {
		if d.ID == tr.ID() {
			found = true
		}
	}
	if !found {
		t.Errorf("Traces(10) does not include trace %d", tr.ID())
	}

	// An id the server never saw yields an empty span list, not an error —
	// but only after the bounded poll, so use a fresh id and accept the wait.
	if testing.Short() {
		return
	}
	none, err := remote.Trace(ctx, uint64(trace.NewID()))
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Errorf("unknown trace id returned %d spans", len(none))
	}
}
