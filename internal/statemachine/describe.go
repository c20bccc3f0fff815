// Machine descriptions: a hand-written text form of a Machine, one
// directive a line, blank lines and '#' comments ignored:
//
//	states <n>            (once, first; n at most MaxStates)
//	start <state>
//	crash <state>
//	edge <from> <to> det|transient|fixed [label ...]
package statemachine

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"failtrans/internal/event"
)

// MaxStates caps a description's state count: the coloring allocates per
// state, so an unbounded count is an out-of-memory crash, not a machine.
const MaxStates = 1 << 20

// ReadMachine parses a machine description. Errors name the offending
// line, and what it accepts passes Validate.
func ReadMachine(in io.Reader) (*Machine, error) {
	sc := bufio.NewScanner(in)
	var m *Machine
	line, statesLine := 0, 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		bad := func(msg string) error { return fmt.Errorf("line %d: %s", line, msg) }
		switch fields[0] {
		case "states":
			if m != nil {
				return nil, bad(fmt.Sprintf("repeated states line (first on line %d)", statesLine))
			}
			var n int
			if len(fields) != 2 || scan(fields[1], &n) != nil || n <= 0 {
				return nil, bad("states <n>")
			}
			if n > MaxStates {
				return nil, bad(fmt.Sprintf("states %d exceeds the limit of %d", n, MaxStates))
			}
			m, statesLine = New(n), line
		case "start":
			if m == nil {
				return nil, bad("start before states")
			}
			var s int
			if len(fields) != 2 || scan(fields[1], &s) != nil {
				return nil, bad("start <state>")
			}
			m.Start = StateID(s)
		case "crash":
			if m == nil {
				return nil, bad("crash before states")
			}
			var s int
			if len(fields) != 2 || scan(fields[1], &s) != nil {
				return nil, bad("crash <state>")
			}
			m.MarkCrash(StateID(s))
		case "edge":
			if m == nil {
				return nil, bad("edge before states")
			}
			if len(fields) < 4 {
				return nil, bad("edge <from> <to> det|transient|fixed [label]")
			}
			var from, to int
			if scan(fields[1], &from) != nil || scan(fields[2], &to) != nil {
				return nil, bad("edge states must be integers")
			}
			var nd event.NDClass
			switch fields[3] {
			case "det":
				nd = event.Deterministic
			case "transient":
				nd = event.TransientND
			case "fixed":
				nd = event.FixedND
			default:
				return nil, bad("class must be det, transient or fixed")
			}
			m.AddEdge(Edge{From: StateID(from), To: StateID(to), ND: nd, Label: strings.Join(fields[4:], " ")})
		default:
			return nil, bad("unknown directive " + fields[0])
		}
	}
	if m == nil {
		return nil, fmt.Errorf("empty machine description")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, sc.Err()
}

func scan(s string, v *int) (err error) {
	*v, err = strconv.Atoi(s)
	return err
}
