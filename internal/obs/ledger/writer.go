package ledger

import (
	"errors"
	"io"
	"strconv"
	"strings"
)

// Version is the ledger format version the writer emits and the only one
// ReadAll accepts.
const Version = 2

// header is the two-line file preamble: a versioned magic line and a
// column-name comment.
const header = "ftledger v2\n" +
	"# run|study|app|protocol|medium|kind|seed|fire|outcome|flags|act|crash|steps|wsteps|prefix|vclock_us|rbdepth|commitn|violfirst|violn|veton|vetosw|commits\n"

// errBadField rejects a record whose string field contains the separator
// or a newline; the sticky error surfaces at the first Err check.
var errBadField = errors.New("ledger: record field contains '|' or newline")

// Writer renders records into the versioned pipe-separated text format,
// one line per record. It is not safe for concurrent use — by design the
// single producer is the campaign executor's ordered accept callback,
// which is what makes ledgers byte-identical across worker counts. Errors
// are sticky: the first write failure suppresses all later appends and is
// reported by Err.
type Writer struct {
	w    io.Writer
	buf  []byte
	err  error
	recs int64
}

// NewWriter writes the format header and returns a writer. Wrap files in a
// bufio.Writer (and flush before closing): Append issues one small Write
// per record.
func NewWriter(w io.Writer) *Writer {
	lw := &Writer{w: w}
	if _, err := io.WriteString(w, header); err != nil {
		lw.err = err
	}
	return lw
}

// Err returns the first error encountered, if any.
func (w *Writer) Err() error { return w.err }

// Records returns the number of records appended so far.
func (w *Writer) Records() int64 { return w.recs }

// appendStr appends one string field and the separator.
func appendStr(b []byte, s string) []byte {
	b = append(b, s...)
	b = append(b, '|')
	return b
}

// appendInt appends one integer field and the separator.
func appendInt(b []byte, v int64) []byte {
	b = strconv.AppendInt(b, v, 10)
	b = append(b, '|')
	return b
}

// fieldOK rejects strings that would corrupt the line format.
func fieldOK(s string) bool {
	return strings.IndexByte(s, '|') < 0 && strings.IndexByte(s, '\n') < 0
}

// Append renders one record and writes it. The render path reuses the
// writer's buffer and builds every field with strconv appends, so a warm
// writer appends with zero heap allocations — the campaign acceptor sits
// between speculative workers and their results, and must not become an
// allocation tax on the run loop.
//
//failtrans:hotpath
func (w *Writer) Append(r *Record) {
	if w.err != nil {
		return
	}
	if !fieldOK(r.Study) || !fieldOK(r.App) || !fieldOK(r.Protocol) || !fieldOK(r.Medium) || !fieldOK(r.Kind) {
		w.err = errBadField
		return
	}
	b := w.buf[:0]
	b = appendInt(b, int64(r.Run))
	b = appendStr(b, r.Study)
	b = appendStr(b, r.App)
	b = appendStr(b, r.Protocol)
	b = appendStr(b, r.Medium)
	b = appendStr(b, r.Kind)
	b = appendInt(b, r.Seed)
	b = appendInt(b, r.FireAt)
	out := r.Outcome
	if out >= outcomeCount {
		out = Inert
	}
	b = appendStr(b, outcomeNames[out])
	n := len(b)
	if r.LoseWork {
		b = append(b, 'L')
	}
	if r.SaveWork {
		b = append(b, 'S')
	}
	if r.Recovered {
		b = append(b, 'R')
	}
	if r.VetoActive {
		b = append(b, 'V')
	}
	if len(b) == n {
		b = append(b, '-')
	}
	b = append(b, '|')
	b = appendInt(b, int64(r.Activation))
	b = appendInt(b, int64(r.Crash))
	b = appendInt(b, int64(r.Steps))
	b = appendInt(b, int64(r.WorldSteps))
	b = appendInt(b, int64(r.PrefixSteps))
	b = appendInt(b, r.VClockUS)
	b = appendInt(b, int64(r.RollbackDepth))
	b = appendInt(b, int64(r.CommitN))
	b = appendInt(b, int64(r.ViolFirst))
	b = appendInt(b, int64(r.ViolN))
	b = appendInt(b, int64(r.VetoN))
	b = appendInt(b, int64(r.VetoSaveWorkN))
	if len(r.Commits) == 0 {
		b = append(b, '-')
	} else {
		for i, c := range r.Commits {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(c), 10)
		}
	}
	b = append(b, '\n')
	w.buf = b
	if _, err := w.w.Write(b); err != nil {
		w.err = err
		return
	}
	w.recs++
}
