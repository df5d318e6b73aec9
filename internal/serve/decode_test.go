package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"

	"roadtrojan/internal/eval"
	"roadtrojan/internal/scene"
	"roadtrojan/internal/telemetry"
	"roadtrojan/internal/tensor"
)

// evalDecodeSeeds are FuzzDecodeEvalRequest's committed seeds, each marked
// with whether DecodeEvalRequest must hand it to encoding/json.
var evalDecodeSeeds = []struct {
	body     string
	fallback bool
}{
	{`{"patch":"QU+/9w==","scene":"road","challenge":"fix","mode":"digital","runs":1,"seed":-5,"target":2}`, false},
	{"\t {\"patch\" : \"a/b\" ,\n\"runs\":0}", false}, // whitespace, leading and between tokens
	{`{"scene":"road"}{"scene":"sim"} trailing`, false},
	{`{}`, false},
	{`{"patch":"a\/b"}`, true}, // some client encoders escape '/'
	{`{"patch":"a\u0041"}`, true},
	{`{"patch":"é"}`, true},
	{"{\"patch\":\"\xff\"}", true},
	{"{\"mode\":\"a\x7fb\"}", true},
	{`{"Patch":"x"}`, true},
	{`{"unknown":1}`, true},
	{`{"runs":1,"runs":2}`, false}, // the later value wins, as in encoding/json
	{`{"seed":null}`, true},
	{`null`, true},
	{`{"runs":1e2}`, true},
	{`{"runs":64.0}`, true},
	{`{"seed":-0}`, true},
	{`{"seed":007}`, true},
	{`{"runs":9223372036854775808}`, true},
	{`{"seed":-}`, true},
	{`{"runs":"3"}`, true},
	{`{"scene":"road",}`, true},
	{`{"scene":"ro`, true},
	{``, true},
}

// FuzzDecodeEvalRequest: DecodeEvalRequest agrees with a json.Decoder over
// the same bytes on the value, the error and the consumed length
// (InputOffset), whichever path it takes.
func FuzzDecodeEvalRequest(f *testing.F) {
	for _, s := range evalDecodeSeeds {
		f.Add([]byte(s.body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, n, err := DecodeEvalRequest(data, nil)
		var want EvalRequest
		dec := json.NewDecoder(bytes.NewReader(data))
		wantErr := dec.Decode(&want)
		if got != want || n != int(dec.InputOffset()) || (err == nil) != (wantErr == nil) ||
			(err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("%q: got %+v, %d, %v; encoding/json %+v, %d, %v", data, got, n, err, want, dec.InputOffset(), wantErr)
		}
	})
}

// TestDecodeEvalRequestFallbacks pins which seeds the single pass takes and
// which it counts as fallbacks.
func TestDecodeEvalRequestFallbacks(t *testing.T) {
	for _, s := range evalDecodeSeeds {
		fallbacks := new(telemetry.Counter)
		_, _, _ = DecodeEvalRequest([]byte(s.body), fallbacks)
		if got := fallbacks.Value() == 1; got != s.fallback {
			t.Errorf("%q: fallback %v, want %v", s.body, got, s.fallback)
		}
	}
}

// frameBody is a one-row detect body whose image array holds elems.
func frameBody(elems string) string {
	return `{"image":[` + elems + `],"height":1,"width":2}`
}

// detectDecodeSeeds are FuzzDecodeDetectRequest's committed seeds, each
// marked with whether DecodeDetectRequest must hand it to encoding/json.
var detectDecodeSeeds = []struct {
	body     string
	fallback bool
}{
	{frameBody("-0"), false},
	{frameBody("0"), false},
	{frameBody("1"), false},
	{frameBody("1e-7"), false},
	{frameBody("1E+2"), false},
	{frameBody("0.5"), false},
	{frameBody("-0,0,1,1e-7,1E+2,0.5,0.47058823529411764,-12.5e-3"), false},
	{frameBody("01"), true},
	{frameBody("-01"), true},
	{frameBody(".5"), true},
	{frameBody("1."), true},
	{frameBody("1.e3"), true},
	{frameBody("1e"), true},
	{frameBody("1e+"), true},
	{frameBody("-"), true},
	{frameBody("+1"), true},
	{frameBody("NaN"), true},
	{frameBody("Infinity"), true},
	{frameBody("-Inf"), true},
	{frameBody("0x10"), true},
	{frameBody("1_0"), true},
	{frameBody("1e400"), true},
	{frameBody("1,null,2"), true},
	{frameBody(`"1"`), true},
	{frameBody("[1]"), true},
	{frameBody("1 2"), true},
	{frameBody("1,2,"), true}, // trailing comma
	{frameBody(","), true},
	{frameBody(""), false},   // an empty array decodes to an empty, non-nil slice
	{`{"image":null}`, true}, // a nil slice
	{`{"Image":[1]}`, true},  // encoding/json folds the key's case
	{`{"im\u0061ge":[1]}`, true},
	{`{"pixels":[1]}`, true},
	{`{"height":1.5}`, true},
	{`{"height":64,"width":64,}`, true},
	{`{"image":[1,2],"image":[3]}`, false}, // the later value wins, as in encoding/json
	{`{"image":[1,2],"image":[]}`, false},
	{`{"image":[1,2],"image":null}`, true},
	{`{"image":[1,2`, true}, // truncated
	{`{"image":[1,2]`, true},
	{`{"image":[0.5],"height":1,"width":1} {"image":[]} trailing`, false},
	{" \t{ \"image\" :\n[ 1 ,\r-2.5e3\t] , \"height\" : 1 ,\"width\":\n2 }\n", false},
	{`null`, true},
	{``, true},
}

// sameDetectRequest reports whether a and b hold the same sizes and the
// same image, bit for bit, nil and empty told apart.
func sameDetectRequest(a, b DetectRequest) bool {
	if a.Height != b.Height || a.Width != b.Width || (a.Image == nil) != (b.Image == nil) || len(a.Image) != len(b.Image) {
		return false
	}
	for i := range a.Image {
		if math.Float64bits(a.Image[i]) != math.Float64bits(b.Image[i]) {
			return false
		}
	}
	return true
}

// FuzzDecodeDetectRequest: DecodeDetectRequest agrees with a json.Decoder
// over the same bytes on the value and the error, whichever path it takes.
func FuzzDecodeDetectRequest(f *testing.F) {
	for _, s := range detectDecodeSeeds {
		f.Add([]byte(s.body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeDetectRequest(data, nil)
		var want DetectRequest
		wantErr := json.NewDecoder(bytes.NewReader(data)).Decode(&want)
		if !sameDetectRequest(got, want) || (err == nil) != (wantErr == nil) ||
			(err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("%q: got %+v, %v; encoding/json %+v, %v", data, got, err, want, wantErr)
		}
	})
}

// TestDecodeDetectRequestFallbacks pins which seeds the single pass takes
// and which it counts as fallbacks.
func TestDecodeDetectRequestFallbacks(t *testing.T) {
	for _, s := range detectDecodeSeeds {
		fallbacks := new(telemetry.Counter)
		_, _ = DecodeDetectRequest([]byte(s.body), fallbacks)
		if got := fallbacks.Value() == 1; got != s.fallback {
			t.Errorf("%q: fallback %v, want %v", s.body, got, s.fallback)
		}
	}
}

// TestPlainASCIIEveryByteEveryLane checks the eight-byte word test against
// the byte-by-byte rule for every byte value at every offset of a string
// that spans two words and a tail.
func TestPlainASCIIEveryByteEveryLane(t *testing.T) {
	for c := 0; c < 256; c++ {
		want := c >= ' ' && c <= '~' && c != '\\'
		for i := 0; i < 19; i++ {
			s := bytes.Repeat([]byte{'A'}, 19)
			s[i] = byte(c)
			if got := plainASCII(s); got != want {
				t.Fatalf("byte %#x at %d: plainASCII %v, want %v", c, i, got, want)
			}
		}
	}
}

// TestEvalDecodeFallbackMetric: servd's /metrics counts an evaluate body
// that needed encoding/json, and that body still answers like the plain
// one: a request whose patch escapes '/' as `\/` hits the plain request's
// cache entry.
func TestEvalDecodeFallbackMetric(t *testing.T) {
	_, ts := startServer(t, testDetector(t), Config{Workers: 1, Job: func(eval.Job) (eval.Detail, error) {
		return eval.Detail{}, nil
	}})
	req := batchEvalReq(3)
	req.Patch, req.Target = encodePatchB64(t, testPatch(t)), 0
	plain, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	escaped := bytes.ReplaceAll(plain, []byte("/"), []byte(`\/`))
	if bytes.Equal(escaped, plain) {
		t.Fatal("test patch has no '/' to escape")
	}
	post := func(body []byte) string { return postOK(t, ts.URL+"/v1/evaluate", body) }
	fallbacks := func() string { return scrapeMetric(t, ts.URL, "eval_decode_fallback_total") }
	first := post(plain)
	if got := fallbacks(); got != "eval_decode_fallback_total 0" {
		t.Fatalf("after a plain body: %q", got)
	}
	if got, want := post(escaped), strings.Replace(first, `"cached":false`, `"cached":true`, 1); got != want {
		t.Fatalf("escaped body answered %s, want %s", got, want)
	}
	if got := fallbacks(); got != "eval_decode_fallback_total 1" {
		t.Fatalf("after an escaped body: %q", got)
	}
}

// roadFrame renders the road scene from the default camera: the frame a
// detect client sends.
func roadFrame(t testing.TB) *tensor.Tensor {
	t.Helper()
	frame, err := scene.DefaultCamera().Render(serialScenes()["road"].Ground)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// frameRequest is the detect request for frame.
func frameRequest(frame *tensor.Tensor) DetectRequest {
	return DetectRequest{Image: append([]float64(nil), frame.Data()...), Height: frame.Dim(1), Width: frame.Dim(2)}
}

// TestDetectDecodeFallbackMetric: servd's /metrics counts a detect body
// that needed encoding/json, and that body answers exactly as the same
// frame decoded by encoding/json and sent plainly: a null element reads
// as 0, and an escaped key is the plain key.
func TestDetectDecodeFallbackMetric(t *testing.T) {
	_, ts := startServer(t, testDetector(t), Config{Workers: 1})
	plain, err := json.Marshal(frameRequest(roadFrame(t)))
	if err != nil {
		t.Fatal(err)
	}
	post := func(body []byte) string { return postOK(t, ts.URL+"/v1/detect", body) }
	fallbacks := func() string { return scrapeMetric(t, ts.URL, "detect_decode_fallback_total") }

	first := post(plain)
	if got := fallbacks(); got != "detect_decode_fallback_total 0" {
		t.Fatalf("after a plain body: %q", got)
	}

	// The image's first two numbers become 1.0e0 and null.
	head := len(`{"image":[`)
	second := head + bytes.IndexByte(plain[head:], ',') + 1
	third := second + bytes.IndexByte(plain[second:], ',')
	nulled := append([]byte(`{"image":[1.0e0,null`), plain[third:]...)
	var want DetectRequest
	if err := json.NewDecoder(bytes.NewReader(nulled)).Decode(&want); err != nil {
		t.Fatal(err)
	}
	if want.Image[0] != 1 || want.Image[1] != 0 {
		t.Fatalf("encoding/json read the edited elements as %v", want.Image[:2])
	}
	wantBody, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := post(nulled), post(wantBody); got != want {
		t.Fatalf("nulled body answered %s, want %s", got, want)
	}
	if got := fallbacks(); got != "detect_decode_fallback_total 1" {
		t.Fatalf("after a null element: %q", got)
	}

	escaped := bytes.Replace(plain, []byte(`"image"`), []byte(`"\u0069mage"`), 1)
	if got := post(escaped); got != first {
		t.Fatalf("escaped body answered %s, want %s", got, first)
	}
	if got := fallbacks(); got != "detect_decode_fallback_total 2" {
		t.Fatalf("after an escaped key: %q", got)
	}
}

// postOK posts body to url and returns the response body, failing the
// test on any status but 200.
func postOK(t *testing.T, url string, body []byte) string {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s), err %v", resp.StatusCode, buf.Bytes(), err)
	}
	return buf.String()
}

// scrapeMetric returns the lines of one metric on the server's /metrics.
func scrapeMetric(t *testing.T, baseURL, name string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return grepMetric(buf.String(), name)
}

// BenchmarkDecodeEvalRequest compares the single pass with encoding/json
// on an evaluate body with a default 32×32 patch (~22 KB of base64).
func BenchmarkDecodeEvalRequest(b *testing.B) {
	req := batchEvalReq(1)
	req.Patch = encodePatchB64(b, testPatch(b))
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("reader", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if _, _, err := DecodeEvalRequest(body, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var r EvalRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&r); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDecodeDetectRequest compares the single pass with encoding/json
// on a rendered 64×64 frame's body (12,288 numbers).
func BenchmarkDecodeDetectRequest(b *testing.B) {
	body, err := json.Marshal(frameRequest(roadFrame(b)))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("reader", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if _, err := DecodeDetectRequest(body, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var r DetectRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&r); err != nil {
				b.Fatal(err)
			}
		}
	})
}
