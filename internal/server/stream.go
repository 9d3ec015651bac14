package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime/debug"
	"sync"
	"time"
	"unsafe"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/engine"
	"github.com/tpset/tpset/internal/lineage"
	"github.com/tpset/tpset/internal/obs"
	"github.com/tpset/tpset/internal/query"
)

// POST /query/stream — the streaming form of POST /query. The response is
// NDJSON (application/x-ndjson, one JSON value per line):
//
//	line 1:      StreamMeta   — canonical query, complexity, version vector, schema
//	lines 2..n+1: TupleJSON   — one result tuple per line, canonical order
//	last line:   StreamTrailer — {"done":true, tuples, elapsedMicros}
//
// Tuples are written as the cursor plan produces them, a batch at a
// time. Each tuple line is appended into a reused byte slice by
// appendTupleLine — no reflection, no varProbs map, no per-tuple string
// — and copied into one pooled 64 KiB bufio.Writer; a json.Encoder over
// the same buffer writes only the once-per-stream meta and trailer
// lines. The bytes are exactly json.Encoder's for the TupleJSON
// EncodeBatchInto fills, so clients see no change. The buffer is flushed
// after the meta line (so the client learns the schema at µs-scale
// TTFT) and on every batch boundary — the first batch is deliberately
// small (streamRampBatch, so the first results reach the client after a
// handful of sweep outputs; the engine's shard producers ramp the same
// way), later ones are streamBatchTuples, matching the promptness of
// the previous per-256-tuple flush cadence while writes stay amortized
// through the buffer; the trailer flush completes the stream. A batch
// fill itself runs at sweep speed, so between flushes the client waits
// on computation, not on buffering. The server never materializes the
// result relation. The trailer marks a complete stream: clients that do
// not see it must treat the result as truncated (once streaming starts,
// HTTP offers no other way to signal a broken transfer).
//
// The result cache is bypassed in both directions — no lookup, no store:
// a stream has no materialized relation to cache, and caching would
// defeat its O(tree depth) memory bound.

// streamBufSize is the bufio.Writer size of the NDJSON stream: large
// enough to hold several hundred encoded tuples per underlying write,
// small enough to be cheap to pool per concurrent stream.
const streamBufSize = 64 << 10

// streamRampBatch is the capacity of the first tuple batch of a
// stream: small, so the first results ship after a few windows instead
// of after a full core.BatchSize fill on highly selective queries.
const streamRampBatch = 64

// streamBatchTuples is the capacity of every later batch — the flush
// cadence of the stream. 256 keeps buffered tuples exactly as fresh as
// the previous handler's flush-every-256-tuples behaviour; the
// syscall amortization comes from the buffer, not the batch size.
const streamBatchTuples = 256

// maxPooledScratch caps the tuple-line scratch a pooled streamEncoder
// keeps: release drops a line, lineage or varProbs buffer that one huge
// formula grew past it, so that formula does not pin the memory in the
// pool for the life of the process.
const maxPooledScratch = 64 << 10

// streamEncoder is the pooled per-stream write state: the sized buffer
// and the scratch appendTupleLine reuses — the tuple line, the rendered
// lineage and the varProbs occurrences — so a steady-state stream
// allocates nothing per tuple. The json.Encoder, which writes only the
// meta and trailer lines, is NOT pooled: it latches its first write
// error forever (a disconnected client would poison the pool entry and
// break later healthy streams), so a fresh one is bound per stream — a
// single small allocation.
type streamEncoder struct {
	bw   *bufio.Writer
	enc  *json.Encoder
	line []byte
	lin  []byte
	occs []lineage.VarOcc
}

var streamEncoderPool = sync.Pool{
	New: func() any {
		return &streamEncoder{bw: bufio.NewWriterSize(io.Discard, streamBufSize)}
	},
}

func getStreamEncoder(w io.Writer) *streamEncoder {
	se := streamEncoderPool.Get().(*streamEncoder)
	se.bw.Reset(w)
	se.enc = json.NewEncoder(se.bw)
	se.enc.SetEscapeHTML(false)
	return se
}

func (se *streamEncoder) release() {
	se.bw.Reset(io.Discard) // drop the response writer reference (and any write error)
	se.enc = nil            // per-stream; see the type comment
	if cap(se.line) > maxPooledScratch {
		se.line = nil
	}
	if cap(se.lin) > maxPooledScratch {
		se.lin = nil
	}
	if cap(se.occs)*int(unsafe.Sizeof(lineage.VarOcc{})) > maxPooledScratch {
		se.occs = nil
	}
	streamEncoderPool.Put(se)
}

// writeTuples writes every row of b as one NDJSON tuple line into the
// buffer. An error is a failed write (the client is gone) or an
// unencodable probability; either way the stream ends without a trailer.
func (se *streamEncoder) writeTuples(b *core.Batch) error {
	for i := range b.Tuples {
		line, err := se.appendTupleLine(se.line[:0], b, i)
		se.line = line
		if err != nil {
			return err
		}
		if _, err := se.bw.Write(line); err != nil {
			return err
		}
	}
	return nil
}

// StreamMeta is the first NDJSON line of a /query/stream response.
type StreamMeta struct {
	// Query is the canonical form of the optimized query.
	Query string `json:"query"`
	// Complexity classifies the query (PTIME vs #P-hard; Theorem 1).
	Complexity string `json:"complexity"`
	// Inputs is the version vector the stream is computed from.
	Inputs []RelVersion `json:"inputs"`
	// Name and Attrs describe the result schema.
	Name  string   `json:"name"`
	Attrs []string `json:"attrs"`
}

// StreamTrailer is the last NDJSON line of a stream. A complete stream
// ends {"done":true,...}; a stream the server had to abort — deadline,
// result budget, recovered panic — ends with done:false and Error set,
// still on a valid NDJSON line, so clients distinguish "server said
// stop, and why" from a connection that just died.
type StreamTrailer struct {
	Done          bool  `json:"done"`
	Tuples        int   `json:"tuples"`
	ElapsedMicros int64 `json:"elapsedMicros"`
	// Error is why the stream was aborted; empty on a complete stream.
	Error string `json:"error,omitempty"`
	// Trace is the per-operator stats tree, present only when the request
	// set trace — snapshotted after the drain, so its counts cover the
	// whole stream. Untraced trailers are byte-identical to previous
	// releases.
	Trace *obs.SpanStats `json:"trace,omitempty"`
}

func (s *Server) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if he := decodeBody(w, r, MaxQueryBodyBytes, &req); he != nil {
		writeError(w, he.status, he.msg)
		return
	}
	pq, err := s.prepare(req)
	if err != nil {
		writeErrStatus(w, err)
		return
	}

	// Admission and deadline run before any byte is written, so shed and
	// queued-timeout responses are ordinary status codes; once streaming
	// starts, failures can only be reported through the trailer.
	qctx, cancel := s.queryContext(r.Context(), req)
	defer cancel()
	if err := s.gate.acquire(qctx); err != nil {
		writeErrStatus(w, s.admissionError(err))
		return
	}
	defer s.gate.release()
	if testHookEvalStart != nil {
		testHookEvalStart(qctx)
	}

	opts := engineOptions(req)
	var span *obs.Span
	if req.Trace {
		span = obs.NewSpan("")
		opts.Span = span
		s.metrics.traced.Inc()
	}
	// The context cancels the shard producers when the client
	// disconnects mid-stream or the deadline fires — the engine stops
	// computing tuples nobody will read.
	cur, err := engine.New(engine.Config{Workers: pq.workers}).
		CursorCtx(qctx, pq.optimized, pq.db, opts)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	defer cur.Close()
	s.metrics.streams.Inc()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	cw := &countingWriter{w: w}
	defer func() { s.metrics.bytesStreamed.Add(uint64(cw.n)) }()
	se := getStreamEncoder(cw)
	defer se.release()
	flush := func() {
		_ = se.bw.Flush()
		if flusher != nil {
			flusher.Flush()
		}
	}
	// se.enc and writeTuples both write into the sized buffer and end
	// every value with '\n': NDJSON framing.

	// Mid-stream panic net: the 200 and part of the body are already on
	// the wire, so the outer recoverPanics middleware could not keep the
	// framing valid. Recovering here can — resetting the bufio.Writer
	// discards any half-encoded line still in the buffer, so the error
	// trailer lands on a fresh line and the stream terminates as valid
	// NDJSON with done:false. Registered after the encoder defers, so it
	// runs before them (LIFO) and still owns a live encoder.
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		s.metrics.panicsRecovered.Inc()
		lg := obs.Logger(r.Context())
		if lg == nil {
			lg = s.cfg.Logger
		}
		if lg != nil {
			lg.LogAttrs(r.Context(), slog.LevelError, "panic recovered mid-stream",
				slog.Any("panic", p),
				slog.String("stack", string(debug.Stack())))
		}
		se.bw.Reset(cw)
		_ = se.enc.Encode(StreamTrailer{Error: "internal error: evaluation panicked mid-stream"})
		flush()
	}()

	schema := cur.Schema()
	start := time.Now()
	meta := StreamMeta{
		Query:      pq.canonical,
		Complexity: query.Classify(pq.optimized).String(),
		Inputs:     pq.versions,
		Name:       schema.Name,
		Attrs:      schema.Attrs,
	}
	if meta.Attrs == nil {
		meta.Attrs = []string{}
	}
	if err := se.enc.Encode(meta); err != nil {
		return // client gone
	}
	flush() // time-to-first-byte: the client learns the schema immediately

	count := 0
	first := true
	limit := s.cfg.MaxResultTuples
	b := core.NewBatch(streamRampBatch) // unpooled: stream-local cadence sizes
	for cur.NextBatch(b) {
		if testHookStreamBatch != nil {
			testHookStreamBatch(count, b)
		}
		if limit > 0 && count+len(b.Tuples) > limit {
			// The batch in hand proves the result exceeds the budget;
			// abort without shipping the overflow. Done stays false.
			_ = se.enc.Encode(StreamTrailer{
				Tuples:        count,
				ElapsedMicros: time.Since(start).Microseconds(),
				Error:         fmt.Sprintf("result exceeds the server's maxResultTuples budget (%d); stream aborted", limit),
			})
			flush()
			s.metrics.tuplesStreamed.Add(uint64(count))
			return
		}
		if err := se.writeTuples(b); err != nil {
			return // client gone (or a NaN p); Close (deferred) releases the producers
		}
		count += len(b.Tuples)
		if first {
			// Ship the ramp batch immediately (time to first tuple),
			// then switch to the steady cadence size.
			first = false
			b = core.NewBatch(streamBatchTuples)
		}
		flush()
	}
	elapsed := time.Since(start)
	s.metrics.streamHist.Observe(elapsed)
	s.metrics.tuplesStreamed.Add(uint64(count))
	trailer := StreamTrailer{
		Tuples:        count,
		ElapsedMicros: elapsed.Microseconds(),
	}
	if err := qctx.Err(); err != nil {
		// The drain ended because the deadline fired (or the client
		// vanished), not because the stream completed: the trailer says
		// so instead of claiming done.
		if errors.Is(err, context.DeadlineExceeded) {
			s.metrics.queriesTimedOut.Inc()
			trailer.Error = "query deadline exceeded; stream truncated"
		} else {
			trailer.Error = "request cancelled; stream truncated"
		}
		_ = se.enc.Encode(trailer)
		flush()
		return
	}
	trailer.Done = true
	if span != nil {
		trailer.Trace = span.Snapshot()
	}
	_ = se.enc.Encode(trailer)
	flush()
}

// testHookStreamBatch, when non-nil, runs once per drained batch with
// the tuple count shipped so far and the batch about to ship — the seam
// the mid-stream panic test uses to blow up after framing has started,
// and the byte-identity test uses to see which batch layouts it covered.
var testHookStreamBatch func(shipped int, b *core.Batch)
