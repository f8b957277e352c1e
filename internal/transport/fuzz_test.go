package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// chunkReader hands out its data a few bytes at a time, the sizes
// cycling through cuts — how a socket delivers a stream.
type chunkReader struct {
	data, cuts []byte
	i          int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := 1
	if len(r.cuts) > 0 {
		n += int(r.cuts[r.i%len(r.cuts)])
		r.i++
	}
	n = copy(p[:min(n, len(p))], r.data)
	r.data = r.data[n:]
	return n, nil
}

// splitFrames is the naive reference: the frames of a stream up to the
// first header announcing more than maxFrame bytes (tooBig) or the
// first frame the stream ends inside.
func splitFrames(data []byte, maxFrame int) (frames [][]byte, tooBig bool) {
	for len(data) >= 4 {
		n := int(binary.BigEndian.Uint32(data))
		if n > maxFrame {
			return frames, true
		}
		if len(data)-4 < n {
			break
		}
		frames, data = append(frames, data[4:4+n]), data[4+n:]
	}
	return frames, false
}

// FuzzFrameReader feeds an arbitrary byte stream, cut at fuzz-chosen
// sizes, through the tcp frame reader with a 32-byte buffer and a
// 100-byte MaxFrame, so frames land on both sides of the buffer size.
// It must never panic, never yield a frame beyond its bound, and yield
// exactly the frames the reference splitter yields — before Hello
// (bound: the buffer) and after (bound: MaxFrame).
func FuzzFrameReader(f *testing.F) {
	const bufSize, maxFrame = 32, 100
	frame := func(n int) []byte {
		return append(binary.BigEndian.AppendUint32(nil, uint32(n)), bytes.Repeat([]byte{byte(n)}, n)...)
	}
	f.Add(bytes.Join([][]byte{frame(0), frame(5), frame(28), frame(29), frame(100), frame(3)}, nil), []byte{0, 3, 40}, true)
	f.Add(bytes.Join([][]byte{frame(7), frame(29), frame(1)}, nil), []byte{200}, false)
	f.Add(append(frame(12), 0, 0, 0, 101, 1, 2, 3), []byte{}, true)
	f.Add(append(frame(12), 0xff, 0xff, 0xff, 0xff), []byte{1}, true)
	f.Add(frame(50)[:30], []byte{6}, true)

	f.Fuzz(func(t *testing.T, data, cuts []byte, trusted bool) {
		bound := maxFrame
		if !trusted {
			bound = bufSize - 4
		}
		want, wantTooBig := splitFrames(data, bound)
		fr := newFrameReader(&chunkReader{data: data, cuts: cuts}, bufSize, maxFrame)
		for i := 0; ; i++ {
			b, err := fr.next(trusted)
			if err != nil {
				if i != len(want) || (err == errFrameTooBig) != wantTooBig {
					t.Fatalf("reader stopped after %d frames with %v; reference has %d frames, tooBig=%v", i, err, len(want), wantTooBig)
				}
				return
			}
			if len(b) > bound {
				t.Fatalf("frame %d has %d bytes, bound %d", i, len(b), bound)
			}
			if i >= len(want) || !bytes.Equal(b, want[i]) {
				t.Fatalf("frame %d = %x, not what the reference splitter yields", i, b)
			}
		}
	})
}
