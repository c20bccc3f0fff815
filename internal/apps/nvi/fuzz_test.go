package nvi

import (
	"bytes"
	"testing"
)

// FuzzUnmarshalState: arbitrary bytes are either refused or restore an editor
// whose image restores to itself, and whose undo section — kept as the bytes
// the walk accepted — decodes without a panic. Restoring into a fork never
// writes the template's section.
func FuzzUnmarshalState(f *testing.F) {
	_, tmpl := runSession(f, "ihello\x1bjddkx:s/o/0/\nuu", []string{"some text", "", "more"})
	valid, err := tmpl.MarshalState()
	if err != nil {
		f.Fatal(err)
	}
	tmpl.Freeze()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := tmpl.Fork()
		if err != nil {
			t.Fatal(err)
		}
		e := p.(*Editor)
		err = e.UnmarshalState(data)
		if now, _ := tmpl.MarshalState(); !bytes.Equal(now, valid) {
			t.Fatal("restoring into a fork changed its template")
		}
		if err != nil {
			return
		}
		e.undoBuffer()
		img, err := e.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		var twin Editor
		if err := twin.UnmarshalState(img); err != nil {
			t.Fatalf("the restored editor's own image is refused: %v", err)
		}
		if again, _ := twin.MarshalState(); !bytes.Equal(again, img) {
			t.Fatal("restore∘marshal is not the identity on a restored editor")
		}
	})
}
