package statemachine

import (
	"strings"
	"testing"
)

// TestReadMachineRejects: each row is a description the parser once
// accepted and then crashed on or misreported.
func TestReadMachineRejects(t *testing.T) {
	for _, tc := range []struct {
		name, in, want string
	}{
		// Accepted, then ran the coloring out of memory.
		{"state count past the cap", "states 99999999999\n", "line 1: states 99999999999 exceeds the limit"},
		// Accepted and reported as "1 crash states".
		{"crash state out of range", "states 3\ncrash 7\n", "crash state 7 out of range"},
		// The second line silently dropped the edge and crash mark before it.
		{"repeated states line", "states 3\nedge 0 1 det\ncrash 2\nstates 3\n", "line 4: repeated states line (first on line 1)"},
		// Read as "states 3": the trailing junk was ignored.
		{"junk after a number", "states 3x\n", "line 1: states <n>"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := ReadMachine(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("ReadMachine = %v, %v; want an error mentioning %q", m, err, tc.want)
			}
		})
	}
}

// FuzzReadMachine: the parser never panics, and what it accepts is a
// valid machine.
func FuzzReadMachine(f *testing.F) {
	f.Add("states 5\nstart 0\n# comment\nedge 0 1 transient bad result\nedge 0 2 transient\nedge 1 3 det doomed\nedge 2 4 fixed\ncrash 3\n")
	f.Add("states 99999999999\n")
	f.Add("states 3\ncrash 7\n")
	f.Add("states 3\nedge 0 1 det\nstates 3\n")
	f.Fuzz(func(t *testing.T, in string) {
		m, err := ReadMachine(strings.NewReader(in))
		if err != nil {
			return
		}
		if verr := m.Validate(); verr != nil {
			t.Fatalf("ReadMachine accepted an invalid machine: %v", verr)
		}
	})
}
