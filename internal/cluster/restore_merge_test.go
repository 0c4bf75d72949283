package cluster

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/storage"
)

// putObject stores one root's object and manifest for an iteration:
// for each node, two sources × the variables, in that order, unless
// reversed, when the object's blocks are encoded back to front (as
// EncodeBatch, which normalizes, never writes them).
func putObject(t *testing.T, mem *storage.Memory, job string, root, it int, nodes []int, vars []string, reversed bool) []Block {
	t.Helper()
	var blocks []Block
	for _, n := range nodes {
		for src := 0; src < 2; src++ {
			for v, name := range vars {
				blocks = append(blocks, Block{Node: n, Source: src, Variable: name, Data: payload(n, src*len(vars)+v, it)})
			}
		}
	}
	b := &Batch{Iteration: it, Blocks: slices.Clone(blocks)}
	data := EncodeBatch(b)
	if reversed {
		slices.Reverse(b.Blocks)
		data = appendU32(append([]byte(nil), batchMagic...), it, len(b.Blocks))
		for _, blk := range b.Blocks {
			data = append(appendU32(appendStr(appendU32(data, blk.Node, blk.Source), blk.Variable), len(blk.Data)), blk.Data...)
		}
	}
	name := fmt.Sprintf("%s-root%03d-it%06d", job, root, it)
	m := newManifest(job, root, name, b, nodes, false)
	if err := errors.Join(mem.Put(name, data), mem.Put(m.Name(), EncodeManifest(m))); err != nil {
		t.Fatal(err)
	}
	return blocks
}

// TestRestoreOrdersInterleavedRuns covers the merge's orderings: each
// fetch worker orders its object's run, and the merge gathers an
// iteration's runs by their first block, sorting the whole only when
// two runs overlap. Whatever the runs, Blocks is the union in (node,
// source, variable) order, and the GOMAXPROCS 1 and 4 restores are
// deeply equal.
func TestRestoreOrdersInterleavedRuns(t *testing.T) {
	vars := []string{"p", "theta", "u"}
	cases := []struct {
		name  string
		roots [][]int // each root's covered nodes, in List (root) order
		rev   bool    // the first root's object is encoded out of order
	}{
		{"interleaved covers", [][]int{{0, 2, 4}, {1, 3, 5}}, false},
		{"object encoded out of order", [][]int{{0, 1, 2}, {3, 4, 5}}, true},
		{"single root", [][]int{{0, 1, 2, 3}}, false},
		{"runs out of List order", [][]int{{3, 4, 5}, {0, 1, 2}}, false},
	}
	mem := storage.NewMemory(nil, 4, 1e9)
	want := map[int][]Block{}
	for it, tc := range cases {
		for root, nodes := range tc.roots {
			want[it] = append(want[it], putObject(t, mem, "job", root, it, nodes, vars, tc.rev && root == 0)...)
		}
		// The union in (node, source, variable) order, built by hand.
		slices.SortStableFunc(want[it], func(x, y Block) int { return x.Node - y.Node })
	}
	restore := func(procs int) *Restored {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		r, err := Restore(mem, "job")
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	serial, concurrent := restore(1), restore(4)
	if !reflect.DeepEqual(serial, concurrent) {
		t.Fatalf("GOMAXPROCS 4 restored %+v\nGOMAXPROCS 1 restored %+v", concurrent, serial)
	}
	if len(serial.Problems) != 0 {
		t.Fatalf("problems: %v", serial.Problems)
	}
	for it, tc := range cases {
		if got := serial.Iterations[it].Blocks; !reflect.DeepEqual(got, want[it]) {
			t.Errorf("%s: restored blocks %v, want %v", tc.name, blockKeys(got), blockKeys(want[it]))
		}
	}
}

// blockKeys lists blocks' (node, source, variable) identities.
func blockKeys(blocks []Block) []string {
	keys := make([]string, len(blocks))
	for i, blk := range blocks {
		keys[i] = fmt.Sprintf("%d/%d/%s", blk.Node, blk.Source, blk.Variable)
	}
	return keys
}

// TestRestoreAllocBudget ceils what Restore allocates per restored block
// on a store shaped like the tenants-small workload's: 40 iterations,
// each stored by 2 roots covering 8 nodes × 2 sources × 16 variables of
// 512-B blocks. Beyond the Get copies and the decoded slices it
// allocates per object, not per block: variable names are interned per
// fetch worker and an iteration's runs are gathered once. The ceiling
// sits just above the count measured when it was set; the restore that
// made two strings per block and re-appended every iteration made 2.06.
func TestRestoreAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const ceiling = 0.07
	mem := storage.NewMemory(nil, 4, 1e9)
	vars := make([]string, 16)
	for v := range vars {
		vars[v] = fmt.Sprintf("v%02d", v)
	}
	for it := 0; it < 40; it++ {
		for root := 0; root < 2; root++ {
			putObject(t, mem, "job", root, it, []int{8 * root, 8*root + 1, 8*root + 2, 8*root + 3,
				8*root + 4, 8*root + 5, 8*root + 6, 8*root + 7}, vars, false)
		}
	}
	var blocks int
	allocs := testing.AllocsPerRun(5, func() {
		r, err := Restore(mem, "job")
		if err != nil || len(r.Problems) > 0 {
			t.Fatal(err, r.Problems)
		}
		blocks = r.TotalBlocks()
	})
	if blocks != 40*2*8*2*16 {
		t.Fatalf("restored %d blocks", blocks)
	}
	perBlock := allocs / float64(blocks)
	t.Logf("%.0f allocations per restore, %.3f per restored block (ceiling %.2f)", allocs, perBlock, ceiling)
	if perBlock > ceiling {
		t.Errorf("Restore allocates %.3f times per restored block, ceiling %.2f", perBlock, ceiling)
	}
}
