package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/datagen"
	"github.com/tpset/tpset/internal/relation"
)

// TestStreamBytesUnchangedByBatching pins the wire format of the
// batched stream handler: for a fixed catalog and query, every meta and
// tuple line must be byte-identical to encoding the materialized result
// tuple-by-tuple with a plain json.Encoder — the pre-batching write
// path — and the trailer must carry the exact tuple count. Batching,
// the pooled encoder and the reflection-free tuple line writer are
// transport changes only; the bytes on the wire do not move. The cases
// cover eager and lazy probabilities, repeating queries (a variable
// occurring more than once, so varProbs dedups), fact values and
// variable names that need JSON escaping, and both batch layouts: the
// columnar operator output and the row batches a partitioned scan
// below engine.DefaultMinColsRows ships.
func TestStreamBytesUnchangedByBatching(t *testing.T) {
	s, ts := newTestServer(t)
	// A larger relation so multiple batches and buffer fills happen.
	big := datagen.Synthetic(datagen.SyntheticConfig{
		Name: "big", NumTuples: 5000, NumFacts: 50, MaxLen: 3, MaxGap: 3, Seed: 5,
	})
	if _, err := s.Load("big", big.Clone()); err != nil {
		t.Fatal(err)
	}
	// Fact values and lineage variables that JSON must escape: quotes,
	// backslashes, control bytes, HTML metacharacters (left alone),
	// U+2028/U+2029, invalid UTF-8 and multi-byte runes.
	esc := relation.New(relation.NewSchema("esc", "Product"))
	for i, v := range []string{
		"milk", `a"b\c`, "<b>&amp;", "tab\tnl\ncr\r\x01\x1f\x7f", "ls\u2028ps\u2029",
		"bad\xff\xfeutf8", "é漢🙂", "\b\f",
	} {
		esc.AddBase(relation.NewFact(v), fmt.Sprintf("e%d%s", i, v), 1, int64(5+i), 0.25+0.05*float64(i))
	}
	if _, err := s.Load("esc", esc); err != nil {
		t.Fatal(err)
	}

	var rowBatches, colBatches int
	testHookStreamBatch = func(_ int, b *core.Batch) {
		if b.HasCols() {
			colBatches++
		} else {
			rowBatches++
		}
	}
	t.Cleanup(func() { testHookStreamBatch = nil })

	for _, req := range []QueryRequest{
		{Query: "c - (a | b)"},
		{Query: "big | big"},
		{Query: "big & c"},
		{Query: "big"}, // partitioned scan: row batches
		{Query: "c - (a | b)", LazyProb: true},
		{Query: "big - (big & c)", LazyProb: true},
		{Query: "c - (c & a)"},             // repeating: c1∧¬(c1∧a1)
		{Query: "(big | c) - (big & big)"}, // repeating over many tuples
		{Query: "esc | c"},
		{Query: "esc - (esc & c)"},
		{Query: "esc & esc", LazyProb: true},
	} {
		q := req.Query
		resp, body := do(t, "POST", ts.URL+"/query/stream", req)
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d: %s", q, resp.StatusCode, body)
		}
		lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
		if len(lines) < 2 {
			t.Fatalf("%s: %d NDJSON lines", q, len(lines))
		}

		// Reference: the materialized result of the same query, encoded
		// line-by-line exactly as the tuple-at-a-time handler did.
		ref, err := s.RunQuery(QueryRequest{Query: q, LazyProb: req.LazyProb, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetEscapeHTML(false)
		meta := StreamMeta{
			Query:      ref.Query,
			Complexity: ref.Complexity,
			Inputs:     ref.Inputs,
			Name:       ref.Result.Name,
			Attrs:      ref.Result.Attrs,
		}
		if err := enc.Encode(meta); err != nil {
			t.Fatal(err)
		}
		for i := range ref.Result.Tuples {
			if err := enc.Encode(ref.Result.Tuples[i]); err != nil {
				t.Fatal(err)
			}
		}
		wantLines := bytes.Split(bytes.TrimSuffix(want.Bytes(), []byte("\n")), []byte("\n"))

		if len(lines) != len(wantLines)+1 { // + trailer
			t.Fatalf("%s: %d stream lines, want %d+trailer", q, len(lines), len(wantLines))
		}
		for i := range wantLines {
			if !bytes.Equal(lines[i], wantLines[i]) {
				t.Fatalf("%s: line %d:\n got %s\nwant %s", q, i, lines[i], wantLines[i])
			}
		}
		var trailer StreamTrailer
		if err := json.Unmarshal(lines[len(lines)-1], &trailer); err != nil {
			t.Fatalf("%s: trailer: %v", q, err)
		}
		if !trailer.Done || trailer.Tuples != len(ref.Result.Tuples) {
			t.Fatalf("%s: trailer %+v, want done with %d tuples", q, trailer, len(ref.Result.Tuples))
		}
	}
	if rowBatches == 0 || colBatches == 0 {
		t.Fatalf("covered %d row and %d columnar batches; want both layouts", rowBatches, colBatches)
	}
}

// countingResponseWriter counts Write calls — each one a syscall on a
// real connection — while delegating to a recorder.
type countingResponseWriter struct {
	rec    *httptest.ResponseRecorder
	writes int
}

func (w *countingResponseWriter) Header() http.Header { return w.rec.Header() }
func (w *countingResponseWriter) WriteHeader(c int)   { w.rec.WriteHeader(c) }
func (w *countingResponseWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.rec.Write(p)
}

// TestStreamWriteCount asserts the batched stream handler performs far
// fewer ResponseWriter writes than tuples streamed: the sized
// bufio.Writer turns the old one-write-per-tuple pattern into one write
// per ~streamBufSize bytes plus the meta/trailer flushes.
func TestStreamWriteCount(t *testing.T) {
	s, _ := newTestServer(t)
	big := datagen.Synthetic(datagen.SyntheticConfig{
		Name: "big", NumTuples: 6000, NumFacts: 60, MaxLen: 3, MaxGap: 3, Seed: 6,
	})
	if _, err := s.Load("big", big); err != nil {
		t.Fatal(err)
	}

	body, _ := json.Marshal(QueryRequest{Query: "big | big"})
	req := httptest.NewRequest("POST", "/query/stream", bytes.NewReader(body))
	cw := &countingResponseWriter{rec: httptest.NewRecorder()}
	s.Handler().ServeHTTP(cw, req)

	if cw.rec.Code != 200 {
		t.Fatalf("status %d: %s", cw.rec.Code, cw.rec.Body.Bytes())
	}
	lines := bytes.Count(cw.rec.Body.Bytes(), []byte("\n"))
	tuples := lines - 2 // minus meta and trailer
	if tuples < 2000 {
		t.Fatalf("only %d tuples streamed; want a stream large enough to measure", tuples)
	}
	// The pre-batching handler issued one write per tuple (plus meta and
	// trailer). Allow generous slack for buffer-boundary writes: even
	// 1/20th would already fail the old write pattern.
	if maxWrites := tuples / 20; cw.writes > maxWrites {
		t.Fatalf("%d ResponseWriter writes for %d tuples; batched encoding should need at most %d",
			cw.writes, tuples, maxWrites)
	}
}

// brokenResponseWriter fails every write after the first — a client
// that disconnected mid-stream.
type brokenResponseWriter struct {
	hdr    http.Header
	writes int
}

func (w *brokenResponseWriter) Header() http.Header {
	if w.hdr == nil {
		w.hdr = http.Header{}
	}
	return w.hdr
}
func (w *brokenResponseWriter) WriteHeader(int) {}
func (w *brokenResponseWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > 1 {
		return 0, fmt.Errorf("client gone")
	}
	return len(p), nil
}

// TestStreamSurvivesBrokenClient pins that a stream aborted by a dead
// client cannot poison the pooled write state for later streams: the
// json.Encoder latches its first write error, so it must be per-stream.
// Without that, the healthy follow-up request below would come back
// with an empty body.
func TestStreamSurvivesBrokenClient(t *testing.T) {
	s, _ := newTestServer(t)
	big := datagen.Synthetic(datagen.SyntheticConfig{
		Name: "big", NumTuples: 4000, NumFacts: 40, MaxLen: 3, MaxGap: 3, Seed: 7,
	})
	if _, err := s.Load("big", big); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(QueryRequest{Query: "big | big"})

	// Enough broken streams to cycle the pool entries.
	for i := 0; i < 8; i++ {
		req := httptest.NewRequest("POST", "/query/stream", bytes.NewReader(body))
		s.Handler().ServeHTTP(&brokenResponseWriter{}, req)
	}

	req := httptest.NewRequest("POST", "/query/stream", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	out := rec.Body.Bytes()
	if len(out) == 0 {
		t.Fatal("healthy stream after broken clients returned an empty body")
	}
	lines := bytes.Split(bytes.TrimSuffix(out, []byte("\n")), []byte("\n"))
	var trailer StreamTrailer
	if err := json.Unmarshal(lines[len(lines)-1], &trailer); err != nil || !trailer.Done {
		t.Fatalf("healthy stream has no trailer (%d lines, err %v)", len(lines), err)
	}
	if trailer.Tuples != len(lines)-2 {
		t.Fatalf("trailer says %d tuples, stream carries %d", trailer.Tuples, len(lines)-2)
	}
}

// TestPrepareWorkersResolution pins the worker resolution rule of the
// request prologue: request > server config > runtime.GOMAXPROCS(0).
func TestPrepareWorkersResolution(t *testing.T) {
	load := func(s *Server) {
		r := relation.New(relation.NewSchema("r", "F"))
		r.AddBase(relation.NewFact("x"), "x1", 0, 3, 0.5)
		if _, err := s.Load("r", r); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		server  int
		request int
		want    int
	}{
		{0, 0, runtime.GOMAXPROCS(0)}, // nothing set: scale with the hardware
		{3, 0, 3},                     // server default wins over hardware
		{3, 2, 2},                     // request wins over server default
		{0, 5, 5},                     // request wins over hardware
	}
	for _, tc := range cases {
		s := New(Config{Workers: tc.server})
		load(s)
		pq, err := s.prepare(QueryRequest{Query: "r", Workers: tc.request})
		if err != nil {
			t.Fatal(err)
		}
		if pq.workers != tc.want {
			t.Fatalf("server=%d request=%d: resolved %d workers, want %d",
				tc.server, tc.request, pq.workers, tc.want)
		}
	}
}
