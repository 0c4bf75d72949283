package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// randomBatch builds a pseudo-random batch from a seeded source, so
// failures reproduce from the logged seed.
func randomBatch(rng *rand.Rand) *Batch {
	b := &Batch{Iteration: rng.Intn(1000)}
	nblocks := rng.Intn(20)
	for i := 0; i < nblocks; i++ {
		data := make([]byte, rng.Intn(512))
		rng.Read(data)
		b.Blocks = append(b.Blocks, Block{
			Node:     rng.Intn(8),
			Source:   rng.Intn(4),
			Variable: fmt.Sprintf("v%d", rng.Intn(6)),
			Data:     data,
		})
	}
	return b
}

// TestEncodeBatchVecMatchesFlat is the property test behind the
// zero-copy write path: for arbitrary batches, the concatenation of
// EncodeBatchVec's segments must be byte-identical to EncodeBatch, and
// both must round-trip through DecodeBatch.
func TestEncodeBatchVecMatchesFlat(t *testing.T) {
	const seed = 7
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 200; trial++ {
		b := randomBatch(rng)
		flat := EncodeBatch(b)
		var joined []byte
		for _, seg := range EncodeBatchVec(b) {
			joined = append(joined, seg...)
		}
		if !bytes.Equal(flat, joined) {
			t.Fatalf("seed %d trial %d: vec concatenation differs from flat encoding (%d vs %d bytes)",
				seed, trial, len(joined), len(flat))
		}
		dec, err := DecodeBatch(joined)
		if err != nil {
			t.Fatalf("seed %d trial %d: decode: %v", seed, trial, err)
		}
		if dec.Iteration != b.Iteration || len(dec.Blocks) != len(b.Blocks) {
			t.Fatalf("seed %d trial %d: round trip lost blocks: %d vs %d",
				seed, trial, len(dec.Blocks), len(b.Blocks))
		}
		for i := range dec.Blocks {
			got, want := dec.Blocks[i], b.Blocks[i] // b was normalized by encode
			if got.Node != want.Node || got.Source != want.Source ||
				got.Variable != want.Variable || !bytes.Equal(got.Data, want.Data) {
				t.Fatalf("seed %d trial %d: block %d differs after round trip", seed, trial, i)
			}
		}
	}
}

// TestEncodeBatchVecAliasesPayloads pins the zero-copy contract: the
// payload segments must reference each Block's Data directly, not a
// copy — that is the entire point of the vector encoding.
func TestEncodeBatchVecAliasesPayloads(t *testing.T) {
	b := &Batch{Iteration: 3, Blocks: []Block{
		{Node: 0, Source: 0, Variable: "a", Data: []byte{1, 2, 3, 4}},
		{Node: 1, Source: 0, Variable: "b", Data: []byte{5, 6, 7}},
	}}
	segs := EncodeBatchVec(b)
	// Layout: header, then (blockHeader, payload) pairs.
	if len(segs) != 1+2*len(b.Blocks) {
		t.Fatalf("got %d segments, want %d", len(segs), 1+2*len(b.Blocks))
	}
	for i := range b.Blocks {
		payload := segs[2+2*i]
		if len(payload) == 0 {
			continue
		}
		if &payload[0] != &b.Blocks[i].Data[0] {
			t.Fatalf("payload segment %d is a copy, not an alias", i)
		}
	}
}

// TestDecodeBatchAliasesInput pins the read side's zero-copy contract:
// decoded payloads share the object's backing array, and each is capped
// at its own length, so an append to block i reallocates instead of
// overwriting block i+1 (or the header in front of it).
func TestDecodeBatchAliasesInput(t *testing.T) {
	enc := EncodeBatch(&Batch{Iteration: 4, Blocks: []Block{
		{Node: 0, Source: 0, Variable: "a", Data: []byte{1, 2, 3, 4}},
		{Node: 0, Source: 1, Variable: "a", Data: []byte{5, 6, 7}},
		{Node: 1, Source: 0, Variable: "b", Data: []byte{8}},
	}})
	dec, err := DecodeBatch(enc)
	if err != nil {
		t.Fatal(err)
	}
	before := bytes.Clone(enc)
	for i, blk := range dec.Blocks {
		blk.Data[0] ^= 0xFF
		aliased := !bytes.Equal(enc, before)
		blk.Data[0] ^= 0xFF
		if !aliased {
			t.Fatalf("block %d payload is a copy, not an alias of the object", i)
		}
		if cap(blk.Data) != len(blk.Data) {
			t.Fatalf("block %d: cap %d exceeds len %d", i, cap(blk.Data), len(blk.Data))
		}
	}
	for i := range dec.Blocks {
		grown := append(dec.Blocks[i].Data, 0xEE, 0xEE, 0xEE, 0xEE)
		if &grown[0] == &dec.Blocks[i].Data[0] {
			t.Fatalf("append to block %d did not reallocate", i)
		}
	}
	if !bytes.Equal(enc, before) {
		t.Fatal("appending to a decoded block overwrote the object")
	}
	if !bytes.Equal(dec.Blocks[1].Data, []byte{5, 6, 7}) || !bytes.Equal(dec.Blocks[2].Data, []byte{8}) {
		t.Fatalf("appending to a block changed its successor: %v", dec.Blocks)
	}
}

// TestEncodeBatchVecEmpty covers the degenerate batch: header only.
func TestEncodeBatchVecEmpty(t *testing.T) {
	b := &Batch{Iteration: 9}
	segs := EncodeBatchVec(b)
	if len(segs) != 1 {
		t.Fatalf("empty batch produced %d segments", len(segs))
	}
	dec, err := DecodeBatch(EncodeBatch(b))
	if err != nil || dec.Iteration != 9 || len(dec.Blocks) != 0 {
		t.Fatalf("empty batch round trip: %v, %+v", err, dec)
	}
}

// TestNormalizeReversedBatch: a batch in exactly the wrong order comes
// out in (node, source, variable) order, and sorting it again is a
// no-op.
func TestNormalizeReversedBatch(t *testing.T) {
	var want []Block
	for node := 0; node < 3; node++ {
		for src := 0; src < 2; src++ {
			for _, v := range []string{"p", "theta", "u"} {
				want = append(want, Block{Node: node, Source: src, Variable: v, Data: []byte{byte(node), byte(src)}})
			}
		}
	}
	b := &Batch{Blocks: slices.Clone(want)}
	slices.Reverse(b.Blocks)
	b.normalize()
	if !reflect.DeepEqual(b.Blocks, want) {
		t.Fatalf("normalized reversed batch:\n%+v\nwant\n%+v", b.Blocks, want)
	}
	b.normalize()
	if !reflect.DeepEqual(b.Blocks, want) {
		t.Fatal("normalizing a sorted batch changed it")
	}
}
