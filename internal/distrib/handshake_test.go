package distrib

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// TestHelloRoundTrip: a hello written by this binary is accepted by
// this binary.
func TestHelloRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := SendHello(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ReadHello(&buf); err != nil {
		t.Fatalf("ReadHello rejected our own hello: %v", err)
	}
}

// TestHelloMismatch: every way a peer can fail the handshake — foreign
// magic, different protocol version, a non-hello first frame, a stream
// that ends early, raw garbage — yields a *FrameError with Op
// "handshake", never a gob decode error or a clean success.
func TestHelloMismatch(t *testing.T) {
	capture := func(msg helloMsg) []byte {
		var buf bytes.Buffer
		if err := newFrameWriter(&buf).send(msgHello, msg); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	otherKind := func() []byte {
		var buf bytes.Buffer
		if err := newFrameWriter(&buf).send(msgPing, pingMsg{Seq: 1}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()
	cases := map[string][]byte{
		"wrong magic":   capture(helloMsg{Magic: 0xDEADBEEF, Version: ProtocolVersion}),
		"wrong version": capture(helloMsg{Magic: ProtocolMagic, Version: ProtocolVersion + 1}),
		// Version 1 peers still carry the split RNG layout field, which this
		// binary would silently drop.
		"version 1":    capture(helloMsg{Magic: ProtocolMagic, Version: 1}),
		"not a hello":  otherKind,
		"empty stream": nil,
		"garbage":      []byte("GET / HTTP/1.1\r\n\r\n"),
	}
	for name, data := range cases {
		err := ReadHello(bytes.NewReader(data))
		var fe *FrameError
		if !errors.As(err, &fe) {
			t.Fatalf("%s: err = %v (%T), want *FrameError", name, err, err)
		}
		if fe.Op != "handshake" {
			t.Fatalf("%s: Op = %q, want handshake", name, fe.Op)
		}
	}
}

// TestServeWorkerAnswersHello: a worker loop replies to a valid hello
// in kind and rejects a mismatched one with a handshake FrameError.
func TestServeWorkerAnswersHello(t *testing.T) {
	var in, out bytes.Buffer
	if err := SendHello(&in); err != nil {
		t.Fatal(err)
	}
	if err := ServeWorker(&in, &out); err != nil {
		t.Fatalf("ServeWorker: %v", err)
	}
	if err := ReadHello(&out); err != nil {
		t.Fatalf("worker's hello reply invalid: %v", err)
	}

	in.Reset()
	if err := newFrameWriter(&in).send(msgHello, helloMsg{Magic: ProtocolMagic, Version: ProtocolVersion + 1}); err != nil {
		t.Fatal(err)
	}
	err := ServeWorker(&in, io.Discard)
	var fe *FrameError
	if !errors.As(err, &fe) || fe.Op != "handshake" {
		t.Fatalf("mismatched hello: err = %v, want handshake *FrameError", err)
	}
}
