package experiments

import (
	"strings"
	"testing"
)

func TestE7SQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement")
	}
	rep := run(t, quick(), "e7s")
	if rep.ID != "E7S" || len(rep.Tables) != 4 {
		t.Fatalf("unexpected report shape: %s with %d tables", rep.ID, len(rep.Tables))
	}
	// The DES-face checks are deterministic; only the runtime-face
	// wall-clock ratios are machine-dependent, and their bands are
	// generous enough to assert here too.
	for _, c := range rep.Checks {
		if !c.Pass() {
			t.Errorf("check failed: %s", c)
		}
	}
}

func TestRegistryCoversEveryRunner(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Registry() {
		if e.ID == "" || e.Title == "" || e.body == nil {
			t.Fatalf("incomplete registry entry: %+v", e)
		}
		if e.ID != strings.ToLower(e.ID) {
			t.Errorf("registry id %q is not lower-case", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate registry id %q", e.ID)
		}
		seen[e.ID] = true
	}
	for _, id := range []string{"e1", "e7", "e7s", "e9", "e10", "f1", "r1", "c1", "a1", "a2"} {
		if !seen[id] {
			t.Errorf("registry is missing %q", id)
		}
	}
}
