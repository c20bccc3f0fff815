package ledger

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// ErrTruncated reports a ledger whose final line is not newline-terminated
// — the signature of a file torn mid-append by a crash. ReadAll returns
// the complete records preceding the tear alongside an error wrapping
// ErrTruncated, so callers can distinguish "torn tail, prefix is good"
// (recoverable: analyze the prefix) from in-line corruption (not).
var ErrTruncated = errors.New("ledger: truncated final record")

// MaxCommitN caps a record's commitn. A count-only record's commitn sizes
// the commit chain the miner builds for it, so an unbounded count is an
// out-of-memory kill, not a run. The largest commitn `ftbench -experiment
// all -ledger` writes is 1 607 (fig8, xpilot); the cap leaves 20x headroom.
const MaxCommitN = 1 << 15

// ErrCommitN reports a record whose commitn exceeds MaxCommitN.
var ErrCommitN = errors.New("ledger: commitn past the limit")

// outcomeByName inverts outcomeNames for the reader.
func outcomeByName(s string) (Outcome, bool) {
	for i, n := range outcomeNames {
		if n == s {
			return Outcome(i), true
		}
	}
	return 0, false
}

// fieldCount is a record's field count: the veton|vetosw columns sit
// before the commit list.
const fieldCount = 23

// ReadAll parses a ledger stream. It accepts comment lines (leading '#')
// anywhere, validates the version line (only Version is accepted), the
// field count of every record, and the commit-list/commit-count
// consistency.
//
// A stream whose final line lacks its newline — including a tear inside
// the header — yields every record before the tear plus an error wrapping
// ErrTruncated. Lines that are complete but malformed remain hard errors.
func ReadAll(r io.Reader) ([]Record, error) {
	br := bufio.NewReaderSize(r, 64*1024)
	line := 0
	// next returns the following newline-terminated line (sans newline).
	// done distinguishes clean EOF from a torn tail: a non-empty remainder
	// without a newline is the torn-append signature.
	next := func() (text string, done bool, err error) {
		s, err := br.ReadString('\n')
		if err == nil {
			line++
			return strings.TrimSuffix(s, "\n"), false, nil
		}
		if err == io.EOF {
			if s == "" {
				return "", true, nil
			}
			return "", true, fmt.Errorf("ledger: line %d: %w", line+1, ErrTruncated)
		}
		return "", true, fmt.Errorf("ledger: %w", err)
	}
	magic, done, err := next()
	if err != nil {
		return nil, err
	}
	if done {
		return nil, fmt.Errorf("ledger: empty input: %w", ErrTruncated)
	}
	var v int
	if _, err := fmt.Sscanf(magic, "ftledger v%d", &v); err != nil {
		return nil, fmt.Errorf("ledger: bad magic line %q", magic)
	}
	if v != Version {
		return nil, fmt.Errorf("ledger: unsupported version %d (reader speaks v%d)", v, Version)
	}
	var out []Record
	for {
		text, done, err := next()
		if err != nil {
			return out, err
		}
		if done {
			return out, nil
		}
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		rec, err := parseLine(text)
		if err != nil {
			return nil, fmt.Errorf("ledger: line %d: %w", line, err)
		}
		out = append(out, rec)
	}
}

// ReadFiles reads and concatenates several ledger files in argument order
// (the multi-shard ftreport input). On error the records parsed so far are
// returned alongside it, so a caller that recognizes errors.Is(err,
// ErrTruncated) can analyze the complete prefix of a torn shard.
func ReadFiles(open func(string) (io.ReadCloser, error), paths []string) ([]Record, error) {
	var out []Record
	for _, p := range paths {
		f, err := open(p)
		if err != nil {
			return out, err
		}
		recs, err := ReadAll(f)
		if cerr := f.Close(); err == nil && cerr != nil {
			err = cerr
		}
		out = append(out, recs...)
		if err != nil {
			return out, fmt.Errorf("%s: %w", p, err)
		}
	}
	return out, nil
}

// ReadPaths is the commands' ledger input (ftreport -ledger, ftbench
// -veto): ReadFiles over the named files, in order. A torn final
// record (a crash mid-append) leaves a clean prefix, so ReadPaths writes a
// warning naming cmd to warn and returns the complete records before the
// tear; every other read error is returned.
func ReadPaths(cmd string, warn io.Writer, paths []string) ([]Record, error) {
	recs, err := ReadFiles(func(p string) (io.ReadCloser, error) { return os.Open(p) }, paths)
	if errors.Is(err, ErrTruncated) {
		fmt.Fprintf(warn, "%s: warning: %v — using the %d complete records before the tear\n", cmd, err, len(recs))
		return recs, nil
	}
	return recs, err
}

func parseLine(text string) (Record, error) {
	var r Record
	f := strings.Split(text, "|")
	if len(f) != fieldCount {
		return r, fmt.Errorf("have %d fields, want %d", len(f), fieldCount)
	}
	ints := func(idx int, dst *int) error {
		v, err := strconv.Atoi(f[idx])
		if err != nil {
			return fmt.Errorf("field %d: %w", idx, err)
		}
		*dst = v
		return nil
	}
	if err := ints(0, &r.Run); err != nil {
		return r, err
	}
	r.Study, r.App, r.Protocol, r.Medium, r.Kind = f[1], f[2], f[3], f[4], f[5]
	seed, err := strconv.ParseInt(f[6], 10, 64)
	if err != nil {
		return r, fmt.Errorf("seed: %w", err)
	}
	r.Seed = seed
	fire, err := strconv.ParseInt(f[7], 10, 64)
	if err != nil {
		return r, fmt.Errorf("fire: %w", err)
	}
	r.FireAt = fire
	out, ok := outcomeByName(f[8])
	if !ok {
		return r, fmt.Errorf("unknown outcome %q", f[8])
	}
	r.Outcome = out
	for _, c := range f[9] {
		switch c {
		case 'L':
			r.LoseWork = true
		case 'S':
			r.SaveWork = true
		case 'R':
			r.Recovered = true
		case 'V':
			r.VetoActive = true
		case '-':
		default:
			return r, fmt.Errorf("unknown flag %q", string(c))
		}
	}
	if err := ints(10, &r.Activation); err != nil {
		return r, err
	}
	if err := ints(11, &r.Crash); err != nil {
		return r, err
	}
	if err := ints(12, &r.Steps); err != nil {
		return r, err
	}
	if err := ints(13, &r.WorldSteps); err != nil {
		return r, err
	}
	if err := ints(14, &r.PrefixSteps); err != nil {
		return r, err
	}
	vclock, err := strconv.ParseInt(f[15], 10, 64)
	if err != nil {
		return r, fmt.Errorf("vclock: %w", err)
	}
	r.VClockUS = vclock
	if err := ints(16, &r.RollbackDepth); err != nil {
		return r, err
	}
	if err := ints(17, &r.CommitN); err != nil {
		return r, err
	}
	if r.CommitN > MaxCommitN {
		return r, fmt.Errorf("commitn %d exceeds %d: %w", r.CommitN, MaxCommitN, ErrCommitN)
	}
	if err := ints(18, &r.ViolFirst); err != nil {
		return r, err
	}
	if err := ints(19, &r.ViolN); err != nil {
		return r, err
	}
	if err := ints(20, &r.VetoN); err != nil {
		return r, err
	}
	if err := ints(21, &r.VetoSaveWorkN); err != nil {
		return r, err
	}
	if f[22] != "-" {
		parts := strings.Split(f[22], ",")
		r.Commits = make([]int, len(parts))
		for i, p := range parts {
			v, err := strconv.Atoi(p)
			if err != nil {
				return r, fmt.Errorf("commit %d: %w", i, err)
			}
			r.Commits[i] = v
		}
		if len(r.Commits) != r.CommitN {
			return r, fmt.Errorf("commit list has %d entries but commitn=%d", len(r.Commits), r.CommitN)
		}
	}
	return r, nil
}
