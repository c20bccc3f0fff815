// Package fieldguard is a test helper for field-by-field contracts such as
// the SameState comparisons: a table names every field of a struct type as
// either covered by the contract or exempt from it with a reason, and Check
// fails when the type gains a field the table does not name — so a new
// field cannot silently escape the comparison — or the table names a field
// the type no longer has.
package fieldguard

import (
	"reflect"
	"testing"
)

// Covered marks a field the contract covers.
const Covered = ""

// Check holds struct type typ to fields: field name → Covered, or the reason
// the field is exempt.
func Check(t testing.TB, typ reflect.Type, fields map[string]string) {
	t.Helper()
	seen := make(map[string]bool, typ.NumField())
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		seen[name] = true
		if _, ok := fields[name]; !ok {
			t.Errorf("%v.%s is neither compared nor listed as behaviour-neutral with a reason", typ, name)
		}
	}
	for name := range fields {
		if !seen[name] {
			t.Errorf("%v has no field %s, which the table lists", typ, name)
		}
	}
}
