package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"roadtrojan/internal/eval"
	"roadtrojan/internal/telemetry"
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
	post := func(body []byte) string {
		resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", bytes.NewReader(body))
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
	fallbacks := func() string {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return grepMetric(buf.String(), "eval_decode_fallback_total")
	}
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
