package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/datagen"
	"github.com/tpset/tpset/internal/engine"
	"github.com/tpset/tpset/internal/interval"
	"github.com/tpset/tpset/internal/keys"
	"github.com/tpset/tpset/internal/lineage"
	"github.com/tpset/tpset/internal/relation"
)

// tupleLineFloats are float64 values at encoding/json's format edges:
// zero, one, the smallest subnormal, both sides of the 1e-6 'f'/'e'
// cutoff, and a value whose shortest form needs 17 digits.
var tupleLineFloats = []float64{0, 1, 5e-324, 9.99e-7, 1e-6, 0.1 + 0.2}

// FuzzTupleLine is the differential test of the stream's tuple line
// writer: for a fuzzed tuple, appendTupleLine must write exactly what
// json.Encoder (SetEscapeHTML(false)) writes for the TupleJSON that
// EncodeTupleInto (row batch) or EncodeBatchInto (columnar batch) fills,
// and fail exactly when it fails.
//
// Fact values and variable names are arbitrary bytes (names are the
// space-separated words of vars). shape drives a stack machine building
// a ¬/∧/∨ tree over those names, so variables repeat, with leaf
// marginals drawn from tupleLineFloats and the fuzzed float; pmode picks
// the tuple's p: valuated (eager), zero (lazy) or the fuzzed float
// itself, NaN and ±Inf included.
func FuzzTupleLine(f *testing.F) {
	f.Add("milk", "s1", "c1 a1", []byte{0, 1, 4, 3}, math.Float64bits(0.42), byte(0), int64(2), int64(4))
	f.Add(`a"b\c`, "\x00\x01\b\f\n\r\t\x1f\x7f", `x"1 y\2 z<3>&`, []byte{0, 4, 2, 0, 3, 1}, math.Float64bits(1e-7), byte(1), int64(-5), int64(9))
	f.Add("ls\u2028ps\u2029", "<>&", "\u2028 \u2029 é漢🙂", []byte{8, 12, 3, 8, 2, 1}, math.Float64bits(1e21), byte(2), int64(0), int64(1))
	f.Add("bad\xff\xfe", "\xed\xa0\x80", "\xff \xc3 ok", []byte{0, 0, 2, 4, 4, 3, 2}, math.Float64bits(math.NaN()), byte(2), int64(1), int64(2))
	f.Add("", "", "", []byte{}, math.Float64bits(math.Inf(-1)), byte(2), int64(3), int64(3))
	f.Add("f", "g", "v", []byte{0}, math.Float64bits(0.3), byte(0), int64(1), int64(2))
	// One name, three marginals: varProbs keeps the last occurrence's.
	f.Add("f", "", "v", []byte{0, 32, 2, 64, 3}, math.Float64bits(0.5), byte(1), int64(1), int64(2))
	for i, x := range tupleLineFloats {
		f.Add("f", "", "v w", []byte{byte(i) << 5, 36, 2}, math.Float64bits(x), byte(2), int64(i), int64(i+1))
	}

	f.Fuzz(func(t *testing.T, fact0, fact1, vars string, shape []byte, pbits uint64, pmode byte, ts, te int64) {
		if len(shape) > 48 {
			shape = shape[:48]
		}
		names := strings.Split(vars, " ")
		if len(names) > 8 {
			names = names[:8]
		}
		x := math.Float64frombits(pbits)
		margs := tupleLineFloats[1:] // marginals lie in (0,1]
		if x > 0 && x <= 1 {
			margs = append(margs[:len(margs):len(margs)], x)
		}
		var stack []*lineage.Expr
		for _, c := range shape {
			n := len(stack)
			switch c % 4 {
			case 0:
				leaf := lineage.Var(names[int(c>>2)%len(names)], margs[int(c>>5)%len(margs)])
				stack = append(stack, leaf)
			case 1:
				if n > 0 {
					stack[n-1] = lineage.Not(stack[n-1])
				}
			case 2:
				if n > 1 {
					stack = append(stack[:n-2], lineage.And(stack[n-2], stack[n-1]))
				}
			case 3:
				if n > 1 {
					stack = append(stack[:n-2], lineage.Or(stack[n-2], stack[n-1]))
				}
			}
		}
		var lam *lineage.Expr
		for _, e := range stack {
			if lam == nil {
				lam = e
			} else {
				lam = lineage.And(lam, e)
			}
		}
		var p float64
		switch pmode % 3 {
		case 0:
			p = lam.Prob()
		case 2:
			p = x
		}
		var fact relation.Fact
		switch {
		case fact1 != "":
			fact = relation.NewFact(fact0, fact1)
		case fact0 != "":
			fact = relation.NewFact(fact0)
		}
		tup := relation.NewDerivedLazy(fact, lam, interval.Interval{Ts: ts, Te: te})
		tup.Prob = p

		var se streamEncoder
		check := func(layout string, b *core.Batch, tj *TupleJSON) {
			var want bytes.Buffer
			enc := json.NewEncoder(&want)
			enc.SetEscapeHTML(false)
			wantErr := enc.Encode(tj)
			got, err := se.appendTupleLine(nil, b, 0)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%s: error %v, json.Encoder error %v", layout, err, wantErr)
			}
			if err == nil && !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("%s:\n got %q\nwant %q", layout, got, want.Bytes())
			}
		}

		var tj TupleJSON
		EncodeTupleInto(&tj, &tup, nil)
		check("row", &core.Batch{Tuples: []relation.Tuple{tup}}, &tj)

		// Columnar: the row keeps only the fact, so a writer reading the
		// interval, probability or lineage from the row instead of the
		// columns fails the comparison.
		cb := &core.Batch{
			Tuples: []relation.Tuple{{Fact: fact}},
			Ts:     []int64{ts}, Te: []int64{te}, Prob: []float64{p}, Lam: []*lineage.Expr{lam},
			Dict: keys.BuildDict(nil),
		}
		EncodeBatchInto(&tj, cb, 0, nil)
		check("columnar", cb, &tj)
	})
}

// warmColumnarBatch returns a full columnar batch of a real stream plan:
// the first steady-cadence batch a /query/stream of q would ship.
func warmColumnarBatch(t *testing.T, q string) *core.Batch {
	t.Helper()
	s := New(Config{Workers: 1})
	big := datagen.Synthetic(datagen.SyntheticConfig{
		Name: "big", NumTuples: 3000, NumFacts: 30, MaxLen: 3, MaxGap: 3, Seed: 8,
	})
	if _, err := s.Load("big", big); err != nil {
		t.Fatal(err)
	}
	req := QueryRequest{Query: q}
	pq, err := s.prepare(req)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := engine.New(engine.Config{Workers: pq.workers}).
		CursorCtx(context.Background(), pq.optimized, pq.db, engineOptions(req))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cur.Close() })
	b := core.NewBatch(streamBatchTuples)
	if !cur.NextBatch(b) || !b.HasCols() || len(b.Tuples) < streamBatchTuples {
		t.Fatalf("%s: want a full columnar batch, got %d tuples (columns %v)", q, len(b.Tuples), b.HasCols())
	}
	return b
}

// TestWriteTuplesZeroAllocs pins the steady state of the stream's
// tuple loop: once the pooled encoder's scratch has grown to fit, a
// columnar batch — formulas, repeated variables, varProbs and all — is
// encoded without a single allocation.
func TestWriteTuplesZeroAllocs(t *testing.T) {
	for _, q := range []string{"big | big", "(big & big) - big"} {
		b := warmColumnarBatch(t, q)
		se := getStreamEncoder(io.Discard)
		if err := se.writeTuples(b); err != nil { // warm-up: size the scratch
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := se.writeTuples(b); err != nil {
				t.Fatal(err)
			}
		})
		se.release()
		if perLine := allocs / float64(len(b.Tuples)); perLine != 0 {
			t.Fatalf("%s: %.0f allocations per %d-tuple batch (%.3f per line); want 0",
				q, allocs, len(b.Tuples), perLine)
		}
	}
}

// TestStreamEncoderReleaseDropsHugeScratch pins the pool hygiene of
// release: scratch one huge formula grew past maxPooledScratch is
// dropped instead of pinned in the pool, while ordinary scratch is
// kept so warm streams do not reallocate it.
func TestStreamEncoderReleaseDropsHugeScratch(t *testing.T) {
	encode := func(lam *lineage.Expr) *streamEncoder {
		t.Helper()
		se := &streamEncoder{bw: bufio.NewWriterSize(io.Discard, streamBufSize)}
		tup := relation.NewDerived(relation.NewFact("f"), lam, interval.New(1, 2))
		if err := se.writeTuples(&core.Batch{Tuples: []relation.Tuple{tup}}); err != nil {
			t.Fatal(err)
		}
		return se
	}

	// 3000 leaves of 32-byte names: ~100 KB of rendered lineage and
	// 72 KB of occurrences.
	const leaves = 3000
	huge := lineage.Var(fmt.Sprintf("h%031d", 0), 0.5)
	for i := 1; i < leaves; i++ {
		huge = lineage.Or(huge, lineage.Var(fmt.Sprintf("h%031d", i), 0.5))
	}
	se := encode(huge)
	if cap(se.line) <= maxPooledScratch || cap(se.lin) <= maxPooledScratch || cap(se.occs) < leaves {
		t.Fatalf("test setup: scratch too small (line %d, lineage %d, occurrences %d)",
			cap(se.line), cap(se.lin), cap(se.occs))
	}
	se.release()
	if se.line != nil || se.lin != nil || se.occs != nil {
		t.Fatalf("release kept huge scratch: line %d, lineage %d, occurrences %d",
			cap(se.line), cap(se.lin), cap(se.occs))
	}

	se = encode(lineage.And(lineage.Var("s1", 0.5), lineage.Not(lineage.Var("s2", 0.5))))
	se.release()
	if se.line == nil || se.lin == nil || se.occs == nil {
		t.Fatal("release dropped small scratch a warm stream would reuse")
	}
}
