package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
)

func TestFrameRoundTripAppendTake(t *testing.T) {
	payload := AppendUint64s(nil, []uint64{15, 1 << 63, math.MaxUint64})
	buf := AppendFrame(nil, 42, payload)
	buf = AppendFrame(buf, -7, nil) // empty payload frame right behind

	tag, got, rest, err := TakeFrame(buf)
	if err != nil || tag != 42 || !bytes.Equal(got, payload) {
		t.Fatalf("first frame: tag=%d err=%v", tag, err)
	}
	tag, got, rest, err = TakeFrame(rest)
	if err != nil || tag != -7 || len(got) != 0 || len(rest) != 0 {
		t.Fatalf("second frame: tag=%d len=%d rest=%d err=%v", tag, len(got), len(rest), err)
	}
}

func TestFrameRoundTripStream(t *testing.T) {
	var b bytes.Buffer
	if err := WriteFrame(&b, 9, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&b, 10, []byte("world")); err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"hello", "world"} {
		tag, payload, err := ReadFrame(&b)
		if err != nil || int(tag) != 9+i || string(payload) != want {
			t.Fatalf("frame %d: tag=%d payload=%q err=%v", i, tag, payload, err)
		}
	}
	if _, _, err := ReadFrame(&b); err != io.EOF {
		t.Fatalf("want clean EOF, got %v", err)
	}
}

func TestFrameRejectsCorruption(t *testing.T) {
	payload := []byte("the quick brown fox")
	good := AppendFrame(nil, 3, payload)

	// Truncations at every length must error, never panic.
	for n := 0; n < len(good); n++ {
		if _, _, _, err := TakeFrame(good[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}

	// A flipped payload byte must fail the checksum.
	bad := append([]byte(nil), good...)
	bad[FrameHeaderLen] ^= 0xFF
	if _, _, _, err := TakeFrame(bad); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("corrupt payload: err=%v", err)
	}
	if _, _, err := ReadFrame(bytes.NewReader(bad)); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("corrupt payload (stream): err=%v", err)
	}

	// Bad magic is a desync.
	bad = append([]byte(nil), good...)
	bad[0] ^= 0xFF
	if _, _, _, err := TakeFrame(bad); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: err=%v", err)
	}

	// A hostile length must be rejected without allocating it.
	bad = append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(bad[8:], MaxFramePayload+1)
	if _, _, _, err := TakeFrame(bad); !errors.Is(err, ErrFrameSize) {
		t.Fatalf("hostile length: err=%v", err)
	}
	if _, _, err := ReadFrame(bytes.NewReader(bad)); !errors.Is(err, ErrFrameSize) {
		t.Fatalf("hostile length (stream): err=%v", err)
	}
}

func TestBytesRoundTrip(t *testing.T) {
	buf := AppendBytes(nil, []byte("127.0.0.1:4242"))
	buf = AppendBytes(buf, nil)
	s, rest, err := TakeBytes(buf)
	if err != nil || string(s) != "127.0.0.1:4242" {
		t.Fatalf("s=%q err=%v", s, err)
	}
	s, rest, err = TakeBytes(rest)
	if err != nil || len(s) != 0 || len(rest) != 0 {
		t.Fatalf("empty: s=%q rest=%d err=%v", s, len(rest), err)
	}
	if _, _, err := TakeBytes([]byte{9, 0, 0, 0, 0, 0, 0, 0, 'x'}); err == nil {
		t.Fatal("truncated byte string accepted")
	}
}
