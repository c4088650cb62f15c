package model

import (
	"bytes"
	"testing"
)

// FuzzRead drives the model decoder — the path svmserve hot-reloads model
// files through — with arbitrary bytes. The contract: no panic and no huge
// allocation on any input; every accepted model passes Validate and
// survives a Write -> Read round trip unchanged: writing the re-read model
// reproduces the same bytes.
func FuzzRead(f *testing.F) {
	calibrated := handModel()
	calibrated.ProbA, calibrated.ProbB, calibrated.HasProb = -1.5, 0.25, true
	for _, m := range []*Model{handModel(), svLess(30, 7), svrModel(), oneClassModel(), calibrated} {
		var buf bytes.Buffer
		if err := m.Write(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted model fails Validate: %v", err)
		}
		var first bytes.Buffer
		if err := m.Write(&first); err != nil {
			t.Fatalf("accepted model fails Write: %v", err)
		}
		again, err := Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-read of written model: %v\n%s", err, first.String())
		}
		var second bytes.Buffer
		if err := again.Write(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("model changed across Write -> Read:\n%s\nvs\n%s", first.String(), second.String())
		}
	})
}
