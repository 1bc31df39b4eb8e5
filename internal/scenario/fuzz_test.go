package scenario

import "testing"

// FuzzScenarioValidate drives the JSON loader with arbitrary input. The
// contract under fuzzing: garbage is rejected with an error, never a panic;
// an accepted scenario revalidates cleanly (validation is idempotent and
// Load left the struct in a consistent state); and its canonical JSON form
// is accepted back, so anything the loader admits can round-trip through
// the batch endpoint and the on-disk scenario files; and it is within the
// shape caps (MaxAxisPoints per axis, MaxGridCells per grid).
//
// The seed corpus is the whole built-in registry — the reference corpus for
// the schema — plus a few deliberately-broken shapes.
func FuzzScenarioValidate(f *testing.F) {
	for _, s := range All() {
		js, err := s.JSON()
		if err != nil {
			f.Fatalf("%s: marshal: %v", s.Name, err)
		}
		f.Add(string(js))
	}
	f.Add(`{}`)
	f.Add(`{"name":"x","title":"x"}`)
	f.Add(`{"name":"x","title":"x","population":{"kind":"paper","n":-3}}`)
	f.Add(`not json at all`)
	f.Add(`{"name":"x","title":"x","sweep":{"axis":"nu","from":1,"to":0,"points":0}}`)
	f.Add(`{"name":"x","title":"x","population":{"kind":"paper"},"providers":[{"name":"isp","gamma":1}],"sweep":{"axis":"nu","lo":0.1,"hi":1,"points":1048576}}`)
	f.Fuzz(func(t *testing.T, js string) {
		s, err := LoadString(js)
		if err != nil {
			return // rejected: the only requirement is no panic
		}
		if s == nil {
			t.Fatal("LoadString returned nil scenario with nil error")
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("accepted scenario fails revalidation: %v\ninput: %s", err, js)
		}
		sw := s.Sweep
		cols := len(sw.XValues())
		if cols > MaxAxisPoints {
			t.Fatalf("accepted a %d-point axis, above MaxAxisPoints\ninput: %s", cols, js)
		}
		if sw.Grid != nil {
			rows := len(sw.Grid.RowValues())
			if rows > MaxAxisPoints || cols*rows > MaxGridCells {
				t.Fatalf("accepted a %d×%d grid, above the caps\ninput: %s", cols, rows, js)
			}
		}
		out, err := s.JSON()
		if err != nil {
			t.Fatalf("accepted scenario does not marshal: %v\ninput: %s", err, js)
		}
		if _, err := LoadString(string(out)); err != nil {
			t.Fatalf("canonical form rejected on reload: %v\ncanonical: %s", err, out)
		}
	})
}
