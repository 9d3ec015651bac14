package server

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/lineage"
)

// The /query/stream tuple line writer. It appends each line straight
// into a reused byte slice — no reflection, no varProbs map, no
// per-tuple string — and produces exactly the bytes json.Encoder with
// SetEscapeHTML(false) writes for the TupleJSON EncodeBatchInto fills
// from the same row. EncodeTupleInto/EncodeBatchInto stay the exported
// codec and the oracle of the differential tests (FuzzTupleLine,
// TestStreamBytesUnchangedByBatching).

// appendTupleLine appends row i of b — read from the packed columns when
// the batch carries them, from the tuple row otherwise — as one NDJSON
// line, '\n' included, to dst. The rendered lineage and the varProbs
// occurrences go through se's reusable scratch. Like json.Encoder it
// fails only on a NaN or infinite probability, and then dst holds a
// partial line the caller must drop.
func (se *streamEncoder) appendTupleLine(dst []byte, b *core.Batch, i int) ([]byte, error) {
	t := &b.Tuples[i]
	lam, ts, te, p := t.Lineage, t.T.Ts, t.T.Te, t.Prob
	if b.HasCols() {
		lam, ts, te, p = b.Lam[i], b.Ts[i], b.Te[i], b.Prob[i]
	}
	dst = append(dst, `{"fact":`...)
	if t.Fact == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for j, v := range t.Fact {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, v)
		}
		dst = append(dst, ']')
	}
	se.lin = lam.AppendString(se.lin[:0])
	dst = append(dst, `,"lineage":`...)
	dst = appendJSONString(dst, se.lin)
	dst = append(dst, `,"ts":`...)
	dst = strconv.AppendInt(dst, ts, 10)
	dst = append(dst, `,"te":`...)
	dst = strconv.AppendInt(dst, te, 10)
	dst = append(dst, `,"p":`...)
	dst, err := appendJSONFloat(dst, p)
	if err != nil {
		return dst, err
	}
	if shipsVarProbs(lam, p) {
		dst = append(dst, `,"varProbs":`...)
		if dst, err = se.appendVarProbs(dst, lam); err != nil {
			return dst, err
		}
	}
	return append(dst, '}', '\n'), nil
}

// appendVarProbs appends the varProbs object of lam as encoding/json
// writes the map lam.VarProbs fills: keys sorted bytewise, one member per
// distinct name, with the marginal of its last occurrence.
func (se *streamEncoder) appendVarProbs(dst []byte, lam *lineage.Expr) ([]byte, error) {
	occs := lam.AppendVarOccs(se.occs[:0])
	se.occs = occs
	// Stable, so equal names keep occurrence order and the last of each
	// run is the occurrence the map would have kept.
	slices.SortStableFunc(occs, func(a, b lineage.VarOcc) int { return strings.Compare(a.Name, b.Name) })
	dst = append(dst, '{')
	members := 0
	var err error
	for k, o := range occs {
		if k+1 < len(occs) && occs[k+1].Name == o.Name {
			continue
		}
		if members++; members > 1 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, o.Name)
		dst = append(dst, ':')
		if dst, err = appendJSONFloat(dst, o.Prob); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// appendJSONFloat appends f in encoding/json's float64 format: 'f'
// notation, except 'e' below 1e-6 and from 1e21 up, with a single-digit
// negative exponent unpadded (1e-7, not 1e-07). NaN and ±Inf are
// json.UnsupportedValueErrors, as in encoding/json.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// jsonSafe reports the ASCII bytes encoding/json copies into a string
// unescaped when HTML escaping is off: everything from space up, except
// '"' and '\\'.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		safe[c] = c != '"' && c != '\\'
	}
	return safe
}()

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal, escaped exactly as
// encoding/json does with SetEscapeHTML(false): '"' and '\\' and the
// control bytes (short forms \b \f \n \r \t, \u00XX otherwise), each
// invalid UTF-8 byte as \ufffd, and U+2028/U+2029 as \u2028/\u2029.
func appendJSONString[S string | []byte](dst []byte, s S) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		// Decode at most one rune's bytes: converting that short window
		// to a string does not allocate.
		n := min(len(s)-i, utf8.UTFMax)
		r, size := utf8.DecodeRuneInString(string(s[i : i+n]))
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
