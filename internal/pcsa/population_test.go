package pcsa

import "testing"

// TestPopulationErrors covers the refusals: nil and incompatible members,
// incompatible edits, and a drop from an empty population.
func TestPopulationErrors(t *testing.T) {
	var p Population
	if err := p.Add(nil); err == nil {
		t.Error("Add(nil) did not error")
	}
	if _, err := p.EditEstimate(MustNew(8, 1), nil); err == nil {
		t.Error("drop from an empty population did not error")
	}
	if err := p.Add(MustNew(8, 1)); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []*Sketch{MustNew(16, 1), MustNew(8, 2)} {
		if err := p.Add(bad); err == nil {
			t.Errorf("Add of a sketch with %d maps, seed %d did not error", bad.NumMaps(), bad.Seed())
		}
		if _, err := p.EditEstimate(bad, nil); err == nil {
			t.Errorf("drop of a sketch with %d maps, seed %d did not error", bad.NumMaps(), bad.Seed())
		}
		if _, err := p.EditEstimate(nil, bad); err == nil {
			t.Errorf("add of a sketch with %d maps, seed %d did not error", bad.NumMaps(), bad.Seed())
		}
	}
}
