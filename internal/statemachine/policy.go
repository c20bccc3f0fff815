// Commit-veto policies: the serializable form of a dangerous-paths
// coloring. A VetoPolicy names the machine's states (the mined machines
// key them in commit-count space, e.g. "c3" or "a2/stop:1") and records
// which of those states are doomed — states where CommitUnsafeAt holds,
// so a commit taken there lies on a dangerous path. dc consults the
// policy at each commit decision point and defers commits in doomed
// states; the policy file ("ftveto v1") is what carries a phase-1
// campaign's mined coloring into a phase-2 veto campaign.
package statemachine

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// VetoMagic is the first line of a policy file.
const VetoMagic = "ftveto v1"

// VetoPolicy is one machine's commit-veto verdicts, keyed by state name.
type VetoPolicy struct {
	// Key identifies the machine the policy was mined from
	// (study/app/protocol for ledger-mined machines).
	Key string
	// Runs counts the runs the source machine merged — the policy's
	// evidence base.
	Runs int64
	// Unsafe holds the names of states where a commit is vetoed.
	Unsafe map[string]bool
}

// CommitUnsafe reports whether a commit in the named state is vetoed.
// A nil policy vetoes nothing, and so does an unknown state: the veto
// is evidence-based, and a state the mining never saw carries none.
func (p *VetoPolicy) CommitUnsafe(state string) bool {
	if p == nil {
		return false
	}
	return p.Unsafe[state]
}

// NewVetoPolicyFromColoring builds a policy from a coloring and a state
// naming. Crash states and doomed states (CommitUnsafeAt) are unsafe.
func NewVetoPolicyFromColoring(key string, runs int64, names map[string]StateID, col *Coloring) *VetoPolicy {
	p := &VetoPolicy{Key: key, Runs: runs, Unsafe: make(map[string]bool)}
	for name, id := range names {
		if col.CommitUnsafeAt(id) {
			p.Unsafe[name] = true
		}
	}
	return p
}

// delimiters may not appear in a machine key or state name: '|' separates
// fields, and a line ends at '\n' with one '\r' before it dropped, so a
// name ending in '\r' would not read back as written.
const delimiters = "|\r\n"

// WritePolicies serializes policies in the given order as an ftveto v1
// document: a magic line, then per policy one "machine|key|runs" line
// followed by its sorted "unsafe|state" lines. Sorting makes the bytes a
// pure function of the policy contents.
func WritePolicies(w io.Writer, ps []*VetoPolicy) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(VetoMagic + "\n"); err != nil {
		return err
	}
	for _, p := range ps {
		if strings.ContainsAny(p.Key, delimiters) {
			return fmt.Errorf("ftveto: machine key %q contains a delimiter", p.Key)
		}
		if _, err := fmt.Fprintf(bw, "machine|%s|%d\n", p.Key, p.Runs); err != nil {
			return err
		}
		states := make([]string, 0, len(p.Unsafe))
		for s, bad := range p.Unsafe {
			if bad {
				states = append(states, s)
			}
		}
		sort.Strings(states)
		for _, s := range states {
			if strings.ContainsAny(s, delimiters) {
				return fmt.Errorf("ftveto: state %q contains a delimiter", s)
			}
			if _, err := bw.WriteString("unsafe|" + s + "\n"); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadPolicies parses an ftveto v1 document, returning policies in file
// order. A machine key may appear once: FindPolicy serves the first match,
// so a repeat could only be silently ignored.
func ReadPolicies(r io.Reader) ([]*VetoPolicy, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("ftveto: empty input")
	}
	if sc.Text() != VetoMagic {
		return nil, fmt.Errorf("ftveto: bad magic %q, want %q", sc.Text(), VetoMagic)
	}
	var ps []*VetoPolicy
	var cur *VetoPolicy
	line := 1
	first := map[string]int{} // machine key -> line it was defined on
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		if strings.ContainsRune(text, '\r') {
			return nil, fmt.Errorf("ftveto: line %d: carriage return inside a line", line)
		}
		fields := strings.Split(text, "|")
		switch fields[0] {
		case "machine":
			if len(fields) != 3 {
				return nil, fmt.Errorf("ftveto: line %d: machine line has %d fields, want 3", line, len(fields))
			}
			runs, err := strconv.ParseInt(fields[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("ftveto: line %d: bad run count %q", line, fields[2])
			}
			if at, dup := first[fields[1]]; dup {
				return nil, fmt.Errorf("ftveto: line %d: repeated machine %q (first on line %d)", line, fields[1], at)
			}
			first[fields[1]] = line
			cur = &VetoPolicy{Key: fields[1], Runs: runs, Unsafe: make(map[string]bool)}
			ps = append(ps, cur)
		case "unsafe":
			if len(fields) != 2 {
				return nil, fmt.Errorf("ftveto: line %d: unsafe line has %d fields, want 2", line, len(fields))
			}
			if cur == nil {
				return nil, fmt.Errorf("ftveto: line %d: unsafe line before any machine line", line)
			}
			cur.Unsafe[fields[1]] = true
		default:
			return nil, fmt.Errorf("ftveto: line %d: unknown directive %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return ps, nil
}

// FindPolicy returns the policy with the given key, or nil.
func FindPolicy(ps []*VetoPolicy, key string) *VetoPolicy {
	for _, p := range ps {
		if p.Key == key {
			return p
		}
	}
	return nil
}
