package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"repro/internal/rng"
)

// FuzzBatchCodec feeds arbitrary bytes to DecodeBatch; anything it
// accepts must re-encode and decode to the same normalized batch, and
// the decoder must never panic or over-allocate on corrupt input.
func FuzzBatchCodec(f *testing.F) {
	f.Add([]byte("not a batch"))
	f.Add(EncodeBatch(&Batch{Iteration: 3}))
	f.Add(EncodeBatch(&Batch{Iteration: 7, Blocks: []Block{
		{Node: 2, Source: 1, Variable: "theta", Data: []byte{1, 2, 3}},
		{Node: 0, Source: 0, Variable: "p", Data: nil},
		{Node: 2, Source: 0, Variable: "theta", Data: []byte{9}},
	}}))
	enc := EncodeBatch(&Batch{Iteration: 1, Blocks: []Block{
		{Node: 1, Source: 2, Variable: "v", Data: bytes.Repeat([]byte{7}, 100)},
	}})
	f.Add(enc)
	f.Add(enc[:len(enc)-3])
	// A block count of 2^31 + 1: negative as a 32-bit int, so the
	// pre-allocation must bound it unsigned.
	huge := append([]byte(nil), enc...)
	huge[8], huge[9], huge[10], huge[11] = 1, 0, 0, 0x80
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBatch(data)
		if err != nil {
			return
		}
		enc1 := EncodeBatch(b) // normalizes b in place
		b2, err := DecodeBatch(enc1)
		if err != nil {
			t.Fatalf("re-decode of a valid encoding failed: %v", err)
		}
		enc2 := EncodeBatch(b2)
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("round trip not stable:\n%x\n%x", enc1, enc2)
		}
		if b2.Iteration != b.Iteration || len(b2.Blocks) != len(b.Blocks) {
			t.Fatalf("round trip changed shape: %+v vs %+v", b, b2)
		}
		for i := range b.Blocks {
			x, y := b.Blocks[i], b2.Blocks[i]
			if x.Node != y.Node || x.Source != y.Source || x.Variable != y.Variable ||
				!bytes.Equal(x.Data, y.Data) {
				t.Fatalf("block %d changed: %+v vs %+v", i, x, y)
			}
		}
	})
}

// FuzzManifestDecode feeds arbitrary bytes to DecodeManifest:
// truncations, huge counts, trailing bytes and foreign format tags must
// surface as the typed manifest errors — never a panic or an oversized
// allocation — and anything accepted must round-trip through
// encode/decode to the same bytes. A damaris-manifest-v3 tag and a JSON
// v1 manifest are both ErrManifestFormat.
func FuzzManifestDecode(f *testing.F) {
	b := &Batch{Iteration: 2, Blocks: []Block{
		{Node: 0, Source: 0, Variable: "theta", Data: bytes.Repeat([]byte{3}, 64)},
		{Node: 1, Source: 1, Variable: "p", Data: nil},
	}}
	m := newManifest("job", 0, "job-root000-it000002", b, []int{0, 1}, false)
	enc := EncodeManifest(m)
	// Every prefix of a valid manifest, each field boundary included, is
	// a truncated one.
	for i := range enc {
		if _, err := DecodeManifest(enc[:i]); !errors.Is(err, ErrNotManifest) {
			f.Fatalf("truncated to %d of %d bytes: err = %v, want ErrNotManifest", i, len(enc), err)
		}
		f.Add(enc[:i])
	}
	v3 := *m
	v3.Format = "damaris-manifest-v3"
	v1 := []byte(`{"format":"damaris-manifest-v1","job":"job","root":0,"iteration":2,"object":"job-root000-it000002","covers":[0,1],"partial":false,"blocks":[{"node":0,"source":0,"variable":"theta","bytes":64}]}`)
	for _, foreign := range [][]byte{EncodeManifest(&v3), v1} {
		if _, err := DecodeManifest(foreign); !errors.Is(err, ErrManifestFormat) {
			f.Fatalf("%q: err = %v, want ErrManifestFormat", foreign, err)
		}
		f.Add(foreign)
	}
	// Counts far larger than the data: 2^31+1 covers (negative as a
	// 32-bit int) and 2^32-1 blocks.
	coversAt := 4 + len(m.Format) + 4 + len(m.Job) + 8 + 4 + len(m.Object)
	blocksAt := coversAt + 4 + 4*len(m.Covers) + 1
	for _, c := range []struct{ at, n int }{{coversAt, 1<<31 + 1}, {blocksAt, 1<<32 - 1}} {
		huge := bytes.Clone(enc)
		binary.LittleEndian.PutUint32(huge[c.at:], uint32(c.n))
		if _, err := DecodeManifest(huge); !errors.Is(err, ErrNotManifest) {
			f.Fatalf("count %d at %d: err = %v, want ErrNotManifest", c.n, c.at, err)
		}
		f.Add(huge)
	}
	// A partial flag other than 0 or 1 would not re-encode to itself.
	flag := bytes.Clone(enc)
	flag[blocksAt-1] = 2
	if _, err := DecodeManifest(flag); !errors.Is(err, ErrNotManifest) {
		f.Fatalf("partial flag 2: err = %v, want ErrNotManifest", err)
	}
	f.Add(flag)
	f.Add(enc)
	f.Add(append(bytes.Clone(enc), 0))
	f.Add(EncodeManifest(newManifest("job", 1, "job-root001-it000002", &Batch{Iteration: 2}, nil, true)))
	f.Add([]byte("not a manifest"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			if !errors.Is(err, ErrNotManifest) && !errors.Is(err, ErrManifestFormat) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if m.Format != manifestFormat {
			t.Fatalf("decoded a manifest tagged %q", m.Format)
		}
		enc := EncodeManifest(m)
		m2, err := DecodeManifest(enc)
		if err != nil {
			t.Fatalf("re-decode of a valid manifest failed: %v", err)
		}
		if enc2 := EncodeManifest(m2); !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip not stable:\n%x\n%x", enc, enc2)
		}
	})
}

// checkTreeInvariants verifies the structural contract of a forest:
// Parent/Children are mutual inverses, every live node is reachable
// from exactly one live root, and dead nodes are detached.
func checkTreeInvariants(t *testing.T, tr Tree, label string) {
	t.Helper()
	seen := map[int]bool{}
	var walk func(i int)
	walk = func(i int) {
		if seen[i] {
			t.Fatalf("%s: node %d reached twice", label, i)
		}
		seen[i] = true
		for _, k := range tr.Children(i) {
			if !tr.Alive(k) {
				t.Fatalf("%s: dead node %d listed as child of %d", label, k, i)
			}
			if p, ok := tr.Parent(k); !ok || p != i {
				t.Fatalf("%s: child %d of %d has Parent %d,%v", label, k, i, p, ok)
			}
			walk(k)
		}
	}
	live := 0
	for _, r := range tr.Roots() {
		if !tr.IsRoot(r) || tr.RootOf(r) != r {
			t.Fatalf("%s: root %d inconsistent", label, r)
		}
		walk(r)
	}
	for i := 0; i < tr.Nodes(); i++ {
		if !tr.Alive(i) {
			if len(tr.Children(i)) != 0 {
				t.Fatalf("%s: dead node %d has children", label, i)
			}
			if seen[i] {
				t.Fatalf("%s: dead node %d reachable from a root", label, i)
			}
			continue
		}
		live++
		if !seen[i] {
			t.Fatalf("%s: live node %d unreachable from any root", label, i)
		}
		if p, ok := tr.Parent(i); ok {
			found := false
			for _, k := range tr.Children(p) {
				if k == i {
					found = true
				}
			}
			if !found {
				t.Fatalf("%s: Parent(%d)=%d but Children(%d)=%v", label, i, p, p, tr.Children(p))
			}
		}
		if r := tr.RootOf(i); !tr.IsRoot(r) {
			t.Fatalf("%s: RootOf(%d)=%d is not a root", label, i, r)
		}
		if tr.IsLeaf(i) != (len(tr.Children(i)) == 0) {
			t.Fatalf("%s: IsLeaf(%d) inconsistent", label, i)
		}
	}
	if len(seen) != live {
		t.Fatalf("%s: reached %d nodes, %d live", label, len(seen), live)
	}
}

// TestTreePropertyUnderFailures drives random forests through random
// kill sequences: Parent and Children must stay mutually consistent,
// and every live node reachable, after every single failure.
func TestTreePropertyUnderFailures(t *testing.T) {
	r := rng.New(20260729, 1)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(40)
		fanout := 1 + r.Intn(5)
		roots := 1 + r.Intn(n)
		tr := NewTree(n, fanout, roots)
		label := func(step int) string {
			return fmtLabel(trial, n, fanout, roots, step)
		}
		checkTreeInvariants(t, tr, label(-1))
		kills := r.Intn(n) // up to n-1 deaths
		alive := make([]int, n)
		for i := range alive {
			alive[i] = i
		}
		for step := 0; step < kills; step++ {
			v := r.Intn(len(alive))
			d := alive[v]
			alive = append(alive[:v], alive[v+1:]...)
			hadKids := len(tr.Children(d))
			wasRoot := tr.IsRoot(d)
			edges := tr.Fail(d)
			// Every previously live child must have been re-routed,
			// promotion included.
			if len(edges) != hadKids {
				t.Fatalf("%s: %d children but %d rerouted edges", label(step), hadKids, len(edges))
			}
			if wasRoot && hadKids > 0 && edges[0].NewParent != -1 {
				t.Fatalf("%s: dead root's first child not promoted: %v", label(step), edges)
			}
			if dest, ok := tr.DrainTarget(d); ok && !tr.Alive(dest) {
				t.Fatalf("%s: drain target %d of %d is dead", label(step), dest, d)
			}
			checkTreeInvariants(t, tr, label(step))
		}
	}
}

func fmtLabel(trial, n, fanout, roots, step int) string {
	return fmt.Sprintf("trial %d n=%d f=%d r=%d step=%d", trial, n, fanout, roots, step)
}
