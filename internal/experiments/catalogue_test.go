package experiments

import "testing"

// TestCatalogueEntriesUnique: every entry, report section or CLI extra,
// has a distinct non-empty name and heading and a run function, so each
// one is a distinct verb, JSON name and report section.
func TestCatalogueEntriesUnique(t *testing.T) {
	names, headings := map[string]bool{}, map[string]bool{}
	for _, e := range append(Catalogue(), Extras()...) {
		if e.Name == "" || e.Heading == "" || e.Run == nil {
			t.Errorf("incomplete entry %+v", e)
		}
		if names[e.Name] {
			t.Errorf("duplicate name %q", e.Name)
		}
		if headings[e.Heading] {
			t.Errorf("duplicate heading %q", e.Heading)
		}
		names[e.Name], headings[e.Heading] = true, true
	}
	if n := len(Catalogue()); n != 20 {
		t.Errorf("catalogue has %d entries, want one per report section (20)", n)
	}
}
