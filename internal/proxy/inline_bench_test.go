package proxy

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"

	"appvsweb/internal/pii"
)

// chunkReader yields data in fixed-size chunks — the read granularity a
// network body delivers, so the tee scans across chunk boundaries like it
// does in production.
type chunkReader struct {
	data []byte
	off  int
	size int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := r.size
	if n > len(p) {
		n = len(p)
	}
	if r.off+n > len(r.data) {
		n = len(r.data) - r.off
	}
	copy(p, r.data[r.off:r.off+n])
	r.off += n
	return n, nil
}

func (r *chunkReader) Close() error { return nil }

// benchInlineBody builds a bodySize-byte analytics-style payload,
// optionally embedding the record's email (base64) mid-stream.
func benchInlineBody(rec *pii.Record, bodySize int, hit bool) []byte {
	filler := `{"event":"screen_view","ts":1459501200,"sdk":"3.2.1"},`
	var b strings.Builder
	b.WriteString(`{"batch":[`)
	for b.Len() < bodySize/2 {
		b.WriteString(filler)
	}
	if hit {
		b.WriteString(`{"uid":"` + pii.Encode(pii.EncBase64, rec.Email) + `"},`)
	}
	for b.Len() < bodySize {
		b.WriteString(filler)
	}
	b.WriteString(`{"end":true}]}`)
	return []byte(b.String())
}

// BenchmarkInlineThroughput is the bench-gated cost model for the inline
// gateway (docs/inline.md): one in-memory relay pass over a 64 KiB body —
// the exact begin/tee/finish/release sequence handleHTTP and
// serveTunneledRequest run — with detection off (nil gateway, the
// pass-through baseline every flow pays today) versus on. In-memory by
// design: the loopback-TLS proxy benchmarks are too noisy to gate
// (docs/performance.md), while this isolates exactly the added scan work.
func BenchmarkInlineThroughput(b *testing.B) {
	rec := inlineRecord()
	const bodySize = 64 << 10
	hdr := http.Header{"Content-Type": {"application/x-www-form-urlencoded"}}
	cases := []struct {
		name string
		gw   *Inline
		hit  bool
	}{
		{name: "off", gw: nil, hit: false},
		{name: "log-clean", gw: NewInline(rec, InlineLog, nil), hit: false},
		{name: "log-hit", gw: NewInline(rec, InlineLog, nil), hit: true},
		{name: "redact-hit", gw: NewInline(rec, InlineRedact, nil), hit: true},
	}
	for _, tc := range cases {
		body := benchInlineBody(rec, bodySize, tc.hit)
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			var buf bytes.Buffer
			buf.Grow(len(body) + 1024)
			for i := 0; i < b.N; i++ {
				insp := tc.gw.begin()
				rc := insp.tee(&chunkReader{data: body, size: 4096})
				buf.Reset()
				if _, err := buf.ReadFrom(rc); err != nil {
					b.Fatal(err)
				}
				iv, _, _ := insp.finish("https://bench.example/v1/batch", hdr, buf.Bytes())
				insp.release()
				if tc.hit && iv == nil {
					b.Fatal("planted PII not detected")
				}
				if !tc.hit && iv != nil {
					b.Fatalf("phantom verdict: %+v", iv)
				}
			}
		})
	}
}
