// The frame stream's line reader (frameLines, session.go) held against
// the reader it replaced, kept here as the oracle: bufio.Scanner lines
// under the same cap, bytes.TrimSpace, blank lines skipped and the strict
// decode of each line. However the stream arrives, both must give the
// same frames, sample for sample, or the same error, code and text.
package server

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
	"testing/iotest"

	"lightator/internal/sensor"
)

// scannerFrames is the frame reader before frameLines: each line
// bufio.Scanner cuts under the cap (a physical line shorter than limit
// bytes, its '\n' aside), trimmed by bytes.TrimSpace, skipped when
// blank, strict-decoded and its scene validated. The one error it
// spells differently is the cap's: its detail was bufio.ErrTooLong's.
func scannerFrames(r io.Reader, limit int) ([]*sensor.Image, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, limit)
	var frames []*sensor.Image
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var f SessionFrame
		if err := decodeStrict(line, &f); err != nil {
			return frames, wrapErr(400, CodeBadRequest, "malformed frame line", err)
		}
		raw, err := validateImageWire(f.Scene)
		if err != nil {
			return frames, wrapErr(400, CodeInvalidImage, "invalid frame scene", err)
		}
		frames = append(frames, imageFromRaw(f.Scene, raw))
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return frames, wrapErr(413, CodePayloadTooLarge, "frame line over the 64 MB cap", errLineTooLong)
		}
		return frames, wrapErr(400, CodeBadRequest, "frame stream read failed", err)
	}
	return frames, nil
}

// lineFrames reads every frame of the stream r delivers through
// frameLines, as the session handler's reader does.
func lineFrames(r io.Reader, limit int) ([]*sensor.Image, error) {
	lines := newFrameLines(r, limit)
	var frames []*sensor.Image
	for {
		img, err := lines.frame()
		if err == io.EOF {
			return frames, nil
		}
		if err != nil {
			return frames, err
		}
		frames = append(frames, img)
	}
}

// sameFrames fails unless frameLines over each reader gives what the
// oracle gives over body: the same frames, bit for bit, then the same
// end, or the same error with the same status, code and text.
func sameFrames(t *testing.T, body []byte, limit int, readers ...io.Reader) {
	t.Helper()
	want, werr := scannerFrames(bytes.NewReader(body), limit)
	defer putScenes(want)
	for _, r := range readers {
		got, gerr := lineFrames(r, limit)
		defer putScenes(got)
		if len(got) != len(want) {
			t.Fatalf("stream %.300q (cap %d): %d frames, the oracle %d (errors %v; %v)", body, limit, len(got), len(want), gerr, werr)
		}
		for i, w := range want {
			g := got[i]
			if g.H != w.H || g.W != w.W || g.C != w.C || len(g.Pix) != len(w.Pix) {
				t.Fatalf("stream %.300q: frame %d is %dx%dx%d, the oracle's %dx%dx%d", body, i, g.H, g.W, g.C, w.H, w.W, w.C)
			}
			for j := range w.Pix {
				if math.Float64bits(g.Pix[j]) != math.Float64bits(w.Pix[j]) {
					t.Fatalf("stream %.300q: frame %d sample %d differs from the oracle's", body, i, j)
				}
			}
		}
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("stream %.300q (cap %d): error %v, the oracle's %v", body, limit, gerr, werr)
		}
		if gerr == nil {
			continue
		}
		var g, w *apiError
		if !errors.As(gerr, &g) || !errors.As(werr, &w) {
			t.Fatalf("untyped error: %v, the oracle's %v", gerr, werr)
		}
		if g.status != w.status || g.code != w.code || g.Error() != w.Error() {
			t.Fatalf("stream %.300q (cap %d): error %d %s %q, the oracle's %d %s %q", body, limit, g.status, g.code, g.Error(), w.status, w.code, w.Error())
		}
	}
}

func putScenes(ims []*sensor.Image) {
	for _, im := range ims {
		putScene(im)
	}
}

// FuzzSessionLines: on NDJSON streams of up to three lines, split into
// reads at two fuzzer-chosen offsets or arriving one byte a read, under
// the 64 MB cap or a fuzzer-chosen one (limit, when not 0), the line
// reader gives what the Scanner reader it replaced gives. Seeds hold
// 2x2 scenes and below; TestSessionLineSplits holds full 256x256 lines
// across the read window.
func FuzzSessionLines(f *testing.F) {
	valid := sceneLine(2, 2, 1, "AAAAAAAAAAAAAAAAAADQPwAAAAAAAOA/AAAAAAAA6D8=")
	other := sceneLine(1, 2, 1, "AAAAAAAA8D8AAAAAAADgPw==")
	for _, body := range []string{
		"",
		valid + "\n",
		valid + "\r\n" + other + "\r\n", // CRLF endings
		valid + "\n \t\n\r\n" + other,   // blank lines, the last without a newline
		valid[:len(valid)/2] + "\r\n",   // truncated value, CRLF
		valid[:20] + " \u00a0\u2028\n",  // truncated between fields
		valid + "\n{\"scene\":17}\n" + other + "\n",      // malformed, then valid
		"\v" + valid + "\n\f" + other + "\n",             // \v and \f before a line
		"\u0085" + valid + "\n\u00a0 " + other + "\n",    // U+0085 and U+00A0 before a line
		valid + "\v\u00a0\n" + valid[:30] + "\u0085\f\n", // ... and after one
		valid[:len(valid)-3] + "\u2028\n",                // inside the value, a multibyte blank
		"\u3000\n" + valid + "  ",                        // three-byte blanks
		valid + "\n" + sceneLine(1, 1, 1, "zzz") + "\n",  // invalid scene
		"\xc2" + valid + "\n" + valid + "\xc2\n",         // a lone lead byte either side
		valid + " x\n",                                   // bytes after the value
		sceneLine(65536, 65536, 3, "AAAA") + "\n",        // dims the value cannot fill
		strings.Repeat(" ", 70) + "\n" + valid + "\n",    // a long blank line
		"\n\n\n", // only blank lines
	} {
		f.Add([]byte(body), uint16(len(body)/3), uint16(len(body)/2), uint16(0))
		// Caps either side of the first line's length.
		f.Add([]byte(body), uint16(7), uint16(len(body)-1), uint16(len(valid)+1))
		f.Add([]byte(body), uint16(1), uint16(2), uint16(len(valid)))
	}
	f.Fuzz(func(t *testing.T, body []byte, a, b, limit uint16) {
		if bytes.Count(body, []byte{'\n'}) > 3 {
			return
		}
		lim := maxBodyBytes
		if limit != 0 {
			lim = int(limit)
		}
		sameFrames(t, body, lim, splitAt(body, int(a), int(b)), iotest.OneByteReader(bytes.NewReader(body)))
	})
}

// TestSessionLineSplits holds streams of full 256x256 frame lines
// against the oracle, arriving in reads that end either side of the
// 32 KiB read window and of a line's end, and in reads of a window's
// size give or take a byte. Blank runs straddle the window: before a
// line, after one, and inside one's JSON. (FuzzSessionLines reads one
// byte at a time; on these 4 MB streams that takes minutes under the
// race detector.)
func TestSessionLineSplits(t *testing.T) {
	line := sceneLine(256, 256, 3, wireScene(256, 256, 3).Pix)
	blanks := func(n int, mid string) string {
		return strings.Repeat(" ", n) + mid + strings.Repeat("\t", 3)
	}
	spacedLine := strings.Replace(line, `"scene":`, `"scene":`+blanks(readWindow-2, "\r"), 1)
	for _, tc := range []struct{ name, body string }{
		{"two lines", line + "\n" + line + "\n"},
		{"CRLF, last without a newline", line + "\r\n" + line},
		{"blank run across the window before a line", blanks(readWindow-1, "\u00a0") + line + "\n"},
		{"blank run across the window after a line", line + blanks(readWindow+1, "\v\u0085\u3000") + "\n" + line},
		{"JSON blank across the window inside a line", spacedLine + "\n"},
		{"truncated second line", line + "\n" + line[:len(line)-readWindow] + "\u2028\r\n"},
		{"blank lines between", line + "\n" + blanks(2*readWindow, "\f") + "\n\n" + line + "\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := []byte(tc.body)
			var readers []io.Reader
			for _, at := range []int{readWindow - 1, len(line) + 1} {
				readers = append(readers, splitAt(body, at, len(body)-at))
			}
			for _, k := range []int{readWindow - 1, readWindow + 1, 3 * readWindow / 2} {
				readers = append(readers, &chunkReader{b: body, n: k})
			}
			sameFrames(t, body, maxBodyBytes, readers...)
			// A cap just over and just under the first line.
			sameFrames(t, body, len(line)+1, bytes.NewReader(body))
			sameFrames(t, body, len(line), bytes.NewReader(body))
		})
	}
}
