package server_test

import (
	"bufio"
	"errors"
	"net"
	"testing"
	"time"

	"repro"
	"repro/internal/wire"
	"repro/server"
)

// TestHelloVersionMismatch: a Hello carrying protocol version 4 — whose
// prepare options still carried an index backend name — is answered with a
// typed ErrVersion instead of being served and misparsed.
func TestHelloVersionMismatch(t *testing.T) {
	g := repro.NewGraph([][2]int64{{0, 1}, {1, 2}})
	addr := serve(t, server.NewSingle(g.Store))
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := nc.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	var e wire.Enc
	e.U64(4)
	e.Str("")
	if err := wire.WriteFrame(nc, wire.THello, 1, e.Bytes()); err != nil {
		t.Fatal(err)
	}
	typ, reqID, body, err := wire.ReadFrame(bufio.NewReader(nc))
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.TErr || reqID != 1 {
		t.Fatalf("reply frame 0x%02x for request %d, want TErr for request 1", typ, reqID)
	}
	if err := wire.DecodeErr(body); !errors.Is(err, wire.ErrVersion) {
		t.Errorf("v4 Hello: %v, want ErrVersion", err)
	}
}
