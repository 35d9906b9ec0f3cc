package wire

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"mndmst/internal/graph"
)

// FuzzTakeSections feeds arbitrary bytes to every decoder; none may panic,
// and any accepted value must re-encode to a decodable buffer.
func FuzzTakeSections(f *testing.F) {
	f.Add(AppendInt32s(nil, []int32{1, -2, 3}))
	f.Add(AppendUint64s(nil, []uint64{7}))
	f.Add(AppendEdges(nil, []graph.Edge{{U: 1, V: 2, W: graph.MakeWeight(3, 4)}}))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})

	f.Fuzz(func(t *testing.T, data []byte) {
		if vals, _, err := TakeInt32s(data); err == nil {
			round := AppendInt32s(nil, vals)
			if back, _, err := TakeInt32s(round); err != nil || len(back) != len(vals) {
				t.Fatalf("int32 round trip: %v", err)
			}
		}
		if vals, _, err := TakeUint64s(data); err == nil {
			round := AppendUint64s(nil, vals)
			if back, _, err := TakeUint64s(round); err != nil || len(back) != len(vals) {
				t.Fatalf("uint64 round trip: %v", err)
			}
		}
		if es, _, err := TakeEdgesInto(nil, data); err == nil {
			round := AppendEdges(nil, es)
			if back, _, err := TakeEdgesInto(nil, round); err != nil || len(back) != len(es) {
				t.Fatalf("edge round trip: %v", err)
			}
		}
		if b, _, err := TakeBytes(data); err == nil {
			round := AppendBytes(nil, b)
			if back, _, err := TakeBytes(round); err != nil || !bytes.Equal(back, b) {
				t.Fatalf("bytes round trip: %v", err)
			}
		}
		TakeUint64(data)
	})
}

// FuzzTakeFrame feeds arbitrary bytes to the frame decoder: it must never
// panic, every accepted frame must round-trip, and corrupting any payload,
// checksum, length, or magic byte of a valid frame must be detected.
func FuzzTakeFrame(f *testing.F) {
	f.Add(AppendFrame(nil, 7, []byte("payload")), -1)
	f.Add(AppendFrame(nil, -3, nil), 0)
	f.Add([]byte{}, 5)
	f.Add([]byte{0x4D, 0x53, 0x54, 0x01}, 2) // magic then truncation
	f.Add(AppendFrame(AppendFrame(nil, 1, []byte{1}), 2, []byte{2}), 20)

	f.Fuzz(func(t *testing.T, data []byte, flip int) {
		// Arbitrary input: decode must not panic, and whatever is accepted
		// must re-encode to an identical decode.
		if tag, payload, rest, err := TakeFrame(data); err == nil {
			round := AppendFrame(nil, tag, payload)
			tag2, payload2, _, err := TakeFrame(round)
			if err != nil || tag2 != tag || !bytes.Equal(payload2, payload) {
				t.Fatalf("frame round trip: tag %d vs %d, err %v", tag, tag2, err)
			}
			_ = rest
		}

		// Corruption: flipping any byte of a well-formed frame outside the
		// tag field must be rejected (the tag carries no redundancy; the
		// payload is covered by the CRC, the header by magic/length/CRC).
		frame := AppendFrame(nil, 11, data)
		if flip >= 0 && flip < len(frame) && (flip < 4 || flip >= 8) {
			bad := append([]byte(nil), frame...)
			bad[flip] ^= 1
			if _, payload, _, err := TakeFrame(bad); err == nil {
				// A length-field flip may still decode if the new length
				// points at bytes whose CRC happens to match — impossible
				// here because the frame is exactly one payload long, so a
				// longer length truncates and a shorter one changes the CRC.
				t.Fatalf("flipped byte %d accepted (payload %d bytes)", flip, len(payload))
			}
		}

		// Truncating a valid frame anywhere must error.
		if len(frame) > 0 {
			cut := len(frame) - 1
			if flip > 0 {
				cut = flip % len(frame)
			}
			if _, _, _, err := TakeFrame(frame[:cut]); err == nil {
				t.Fatalf("truncation to %d bytes accepted", cut)
			}
		}
	})
}

// FuzzTakeEdges checks the edge decoder. No input panics, and an accepted
// buffer re-encodes to the bytes it was decoded from. Packed edges drawn
// from the input (14 bytes each: U, V, a 16-bit random weight and an id)
// round-trip exactly.
func FuzzTakeEdges(f *testing.F) {
	f.Add(AppendEdges(nil, []graph.Edge{{U: 1, V: 2, W: graph.MakeWeight(3, 4)}}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 3*graph.EdgeBytes))
	f.Add([]byte("0123456789abcd0123456789abcd"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if es, rest, err := TakeEdgesInto(nil, data); err == nil {
			in := data[:len(data)-len(rest)]
			if round := AppendEdges(nil, es); !bytes.Equal(round, in) {
				t.Fatalf("decoded %x, re-encodes to %x", in, round)
			}
		}

		var es []graph.Edge
		for b := data; len(b) >= 14; b = b[14:] {
			es = append(es, graph.Edge{
				U: int32(binary.LittleEndian.Uint32(b)),
				V: int32(binary.LittleEndian.Uint32(b[4:])),
				W: graph.MakeWeight(binary.LittleEndian.Uint16(b[8:]), int32(binary.LittleEndian.Uint32(b[10:]))),
			})
		}
		got, rest, err := TakeEdgesInto(nil, AppendEdges(nil, es))
		if err != nil || len(rest) != 0 || !slices.Equal(got, es) {
			t.Fatalf("packed edges %+v: decoded %+v, %d bytes left, err %v", es, got, len(rest), err)
		}
	})
}
