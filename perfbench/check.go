package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"time"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/engine"
	"github.com/tpset/tpset/internal/query"
	"github.com/tpset/tpset/internal/ref"
	"github.com/tpset/tpset/internal/relation"
	"github.com/tpset/tpset/internal/server"
)

// Correctness is checked at two levels. Every response of the measured
// phase is compared with a reference for its request kind and catalog
// version: its status, its stream trailer, its tuple count and a digest
// of its tuple bytes. The references are computed by the sequential
// plan (workers 1) and the server's own wire encoder, so they pin the
// served bytes to what the layers compute. Once per run a down-scaled
// replica of the workload is then served and checked against
// internal/ref, which evaluates Def. 3 snapshot by snapshot, composed
// per operator, with probabilities checked against possible-worlds
// enumeration wherever a lineage has at most 20 variables.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// expected is the reference answer of one request kind.
type expected struct {
	tuples int
	digest uint32
}

// catalogDB snapshots the named relations of the running server.
func catalogDB(srv *server.Server, names []string) (map[string]*relation.Relation, error) {
	db := make(map[string]*relation.Relation, len(names))
	for _, n := range names {
		r, _, ok := srv.Relation(n)
		if !ok {
			return nil, fmt.Errorf("relation %q is not in the catalog", n)
		}
		db[n] = r
	}
	return db, nil
}

// sequentialCursor plans q over db on the sequential plan with the
// handler's options.
func sequentialCursor(q string, db map[string]*relation.Relation) (*engine.StreamCursor, error) {
	n, err := query.Parse(q)
	if err != nil {
		return nil, err
	}
	n = query.PushDownSelections(n)
	return engine.New(engine.Config{Workers: 1}).CursorCtx(context.Background(), n, db,
		core.Options{AssumeSorted: true})
}

// crcWriter digests everything written to it.
type crcWriter struct{ sum uint32 }

func (w *crcWriter) Write(p []byte) (int, error) {
	w.sum = crc32.Update(w.sum, castagnoli, p)
	return len(p), nil
}

// streamReference is the tuple count and the digest of the tuple lines
// POST /query/stream must send for q.
func streamReference(srv *server.Server, q string) (expected, error) {
	n, err := query.Parse(q)
	if err != nil {
		return expected{}, err
	}
	db, err := catalogDB(srv, query.Relations(n))
	if err != nil {
		return expected{}, err
	}
	cur, err := sequentialCursor(q, db)
	if err != nil {
		return expected{}, err
	}
	defer cur.Close()
	var w crcWriter
	enc := json.NewEncoder(&w)
	enc.SetEscapeHTML(false)
	var tj server.TupleJSON
	probs := map[string]float64{}
	count := 0
	b := core.GetBatch()
	defer core.PutBatch(b)
	for cur.NextBatch(b) {
		for i := range b.Tuples {
			if b.HasCols() {
				server.EncodeBatchInto(&tj, b, i, probs)
			} else {
				server.EncodeTupleInto(&tj, &b.Tuples[i], probs)
			}
			if err := enc.Encode(&tj); err != nil {
				return expected{}, err
			}
		}
		count += len(b.Tuples)
	}
	return expected{tuples: count, digest: w.sum}, nil
}

// resultReference is the "result" member POST /query must return for q.
func resultReference(srv *server.Server, q string) (expected, error) {
	n, err := query.Parse(q)
	if err != nil {
		return expected{}, err
	}
	db, err := catalogDB(srv, query.Relations(n))
	if err != nil {
		return expected{}, err
	}
	cur, err := sequentialCursor(q, db)
	if err != nil {
		return expected{}, err
	}
	out := core.Materialize(cur)
	cur.Close()
	raw, err := encodeResult(out)
	if err != nil {
		return expected{}, err
	}
	return expected{tuples: out.Len(), digest: crc32.Checksum(raw, castagnoli)}, nil
}

func encodeResult(out *relation.Relation) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(server.EncodeRelation(out, 0)); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n")), nil
}

// queryReply is the part of a POST /query response the checks read; the
// result stays raw so its bytes can be digested.
type queryReply struct {
	Cached bool                `json:"cached"`
	Inputs []server.RelVersion `json:"inputs"`
	Result json.RawMessage     `json:"result"`
}

var tupleMark = []byte(`{"fact":`)

// checkReply compares a POST /query response with its reference.
func checkReply(status int, body []byte, want expected) string {
	if status != http.StatusOK {
		return fmt.Sprintf("status %d: %.200s", status, body)
	}
	var r queryReply
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Sprintf("undecodable response: %v", err)
	}
	got := expected{tuples: bytes.Count(r.Result, tupleMark), digest: crc32.Checksum(r.Result, castagnoli)}
	if got != want {
		return fmt.Sprintf("result has %d tuples, digest %08x; reference has %d tuples, digest %08x",
			got.tuples, got.digest, want.tuples, want.digest)
	}
	return ""
}

// streamOutcome is what the client saw of one NDJSON stream.
type streamOutcome struct {
	status  int
	got     expected
	trailer server.StreamTrailer
	ttft    time.Duration // to the first tuple line
	broken  string        // framing fault after the status: a wrong answer
}

var (
	metaMark    = []byte(`{"query":`)
	trailerMark = []byte(`{"done":`)
)

// stream sends one POST /query/stream and reads it to the end, counting
// and digesting the tuple lines without decoding them. Its error is a
// transport failure or a refusal (see outcome); a stream that breaks
// its framing or breaks off is the server's answer, recorded in broken.
func (h *harness) stream(body []byte, rd *bufio.Reader) (streamOutcome, error) {
	var out streamOutcome
	start := time.Now()
	resp, err := h.client.Post(h.base+"/query/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	out.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		_, err := io.Copy(io.Discard, resp.Body)
		wrong, failure := outcome(resp.StatusCode, err, http.StatusOK)
		out.broken = wrong
		return out, failure
	}
	rd.Reset(resp.Body)
	out.broken = out.read(rd, start)
	return out, nil
}

// read consumes a 200 stream's lines and returns what is wrong with its
// framing, or "".
func (out *streamOutcome) read(rd *bufio.Reader, start time.Time) string {
	var long []byte
	sawMeta, sawTrailer := false, false
	for {
		line, err := rd.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			long = append(long[:0], line...)
			for errors.Is(err, bufio.ErrBufferFull) {
				line, err = rd.ReadSlice('\n')
				long = append(long, line...)
			}
			line = long
		}
		if len(line) > 0 {
			switch {
			case sawTrailer:
				return fmt.Sprintf("line after the trailer: %.120q", line)
			case bytes.HasPrefix(line, tupleMark):
				if out.got.tuples == 0 {
					out.ttft = time.Since(start)
				}
				out.got.tuples++
				out.got.digest = crc32.Update(out.got.digest, castagnoli, line)
			case bytes.HasPrefix(line, trailerMark):
				if err := json.Unmarshal(line, &out.trailer); err != nil {
					return fmt.Sprintf("undecodable trailer: %v", err)
				}
				sawTrailer = true
			case bytes.HasPrefix(line, metaMark) && !sawMeta:
				sawMeta = true
			default:
				return fmt.Sprintf("unexpected stream line %.120q", line)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Sprintf("stream broke off after %d tuples: %v", out.got.tuples, err)
		}
	}
	if !sawMeta || !sawTrailer {
		return fmt.Sprintf("stream without meta line or trailer (meta %v, trailer %v)", sawMeta, sawTrailer)
	}
	return ""
}

// checkStream compares one stream with its reference.
func checkStream(o streamOutcome, want expected) string {
	switch {
	case o.broken != "":
		return o.broken
	case !o.trailer.Done:
		return fmt.Sprintf("trailer not done: %q", o.trailer.Error)
	case o.trailer.Tuples != o.got.tuples:
		return fmt.Sprintf("trailer counts %d tuples, stream carried %d", o.trailer.Tuples, o.got.tuples)
	case o.got != want:
		return fmt.Sprintf("stream has %d tuples, digest %08x; reference has %d tuples, digest %08x",
			o.got.tuples, o.got.digest, want.tuples, want.digest)
	}
	return ""
}

// refEval evaluates a query tree with internal/ref, one operator at a
// time: the literal Def. 3 semantics.
func refEval(n query.Node, db map[string]*relation.Relation) (*relation.Relation, error) {
	switch q := n.(type) {
	case *query.Rel:
		r, ok := db[q.Name]
		if !ok {
			return nil, fmt.Errorf("reference: unknown relation %q", q.Name)
		}
		return r, nil
	case *query.SetOp:
		l, err := refEval(q.Left, db)
		if err != nil {
			return nil, err
		}
		r, err := refEval(q.Right, db)
		if err != nil {
			return nil, err
		}
		return ref.Apply(q.Op, l, r), nil
	case *query.Select:
		in, err := refEval(q.Input, db)
		if err != nil {
			return nil, err
		}
		idx := -1
		for i, a := range in.Schema.Attrs {
			if a == q.Attr {
				idx = i
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("reference: no attribute %q", q.Attr)
		}
		out := relation.New(in.Schema)
		for i := range in.Tuples {
			if in.Tuples[i].Fact[idx] == q.Value {
				out.Tuples = append(out.Tuples, in.Tuples[i])
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("reference: unknown node %T", n)
}

// refQuery is refEval from query text.
func refQuery(q string, db map[string]*relation.Relation) (*relation.Relation, error) {
	n, err := query.Parse(q)
	if err != nil {
		return nil, err
	}
	return refEval(n, db)
}

// checkAgainstRef decodes a served result and compares it with the
// internal/ref answer, then checks every probability whose lineage has at
// most 20 variables against possible-worlds enumeration.
func checkAgainstRef(result json.RawMessage, want *relation.Relation) string {
	var rj server.RelationJSON
	if err := json.Unmarshal(result, &rj); err != nil {
		return fmt.Sprintf("undecodable result: %v", err)
	}
	rj.Name = "served"
	got, err := server.DecodeRelation(rj, "")
	if err != nil {
		return fmt.Sprintf("result does not decode: %v", err)
	}
	if d := relation.Diff(got, want); d != "" {
		return "differs from internal/ref: " + d
	}
	for i := range got.Tuples {
		t := &got.Tuples[i]
		if len(t.Lineage.Vars(nil)) > 20 {
			continue
		}
		if pw := t.Lineage.ProbPossibleWorlds(); math.Abs(pw-t.Prob) > 1e-9 {
			return fmt.Sprintf("tuple %s %s: served p %v, possible worlds %v", t.Fact, t.T, t.Prob, pw)
		}
	}
	return ""
}

// checkReplica serves each query over the replica relations through the
// server's evaluation path and checks the answers against internal/ref.
// It returns the number of queries checked and any failures.
func checkReplica(rels []namedRel, queries []string) (int, []string) {
	srv := server.New(server.Config{})
	db := make(map[string]*relation.Relation, len(rels))
	var bad []string
	for _, nr := range rels {
		db[nr.name] = nr.rel
		if _, err := srv.Load(nr.name, nr.rel.Clone()); err != nil {
			return 0, []string{fmt.Sprintf("replica: loading %s: %v", nr.name, err)}
		}
	}
	for _, q := range queries {
		want, err := refQuery(q, db)
		if err != nil {
			bad = append(bad, fmt.Sprintf("replica %q: %v", q, err))
			continue
		}
		resp, err := srv.RunQuery(server.QueryRequest{Query: q, NoCache: true})
		if err != nil {
			bad = append(bad, fmt.Sprintf("replica %q: %v", q, err))
			continue
		}
		raw, err := json.Marshal(resp.Result)
		if err != nil {
			bad = append(bad, fmt.Sprintf("replica %q: %v", q, err))
			continue
		}
		if msg := checkAgainstRef(raw, want); msg != "" {
			bad = append(bad, fmt.Sprintf("replica %q: %s", q, msg))
		}
	}
	return len(queries), bad
}
