package experiments

import "testing"

func TestE11Quick(t *testing.T) {
	rep := run(t, quick(), "e11")
	if rep.ID != "E11" || len(rep.Tables) != 2 {
		t.Fatalf("unexpected report shape: %s with %d tables", rep.ID, len(rep.Tables))
	}
	// Both faces are deterministic given the seed (the runtime face
	// measures structure — blocks, reforms, frames — not wall-clock),
	// so every check is assertable here.
	for _, c := range rep.Checks {
		if !c.Pass() {
			t.Errorf("check failed: %s", c)
		}
	}
}
