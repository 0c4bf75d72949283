// Command sdfdump inspects SDF files (the repository's HDF5-substitute
// format): it lists groups, datasets, attributes and compression info,
// and optionally prints dataset statistics. Given a directory, it
// treats it as an SDF object store (what the cluster layer's sdf
// backend writes) and prints a manifest-aware listing: per-iteration
// checkpoint manifests with their coverage, and the data objects with
// their sizes.
//
// Usage:
//
//	sdfdump file.sdf             # structure listing
//	sdfdump -stats file.sdf      # plus min/max/mean per float64 dataset
//	sdfdump out/ckpt/fail0       # object-store listing with manifests
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/cluster"
	"repro/internal/insitu"
	"repro/internal/sdf"
	"repro/internal/storage"
	"repro/internal/storage/chunk"
)

func main() {
	stats := flag.Bool("stats", false, "print min/max/mean for float64 datasets")
	flag.Parse()
	if flag.NArg() == 0 {
		log.Fatal("usage: sdfdump [-stats] file.sdf|store-dir ...")
	}
	for _, path := range flag.Args() {
		info, err := os.Stat(path)
		if err != nil {
			log.Fatalf("%s: %v", path, err)
		}
		if info.IsDir() {
			err = dumpStore(path)
		} else {
			err = dump(path, *stats)
		}
		if err != nil {
			log.Fatalf("%s: %v", path, err)
		}
	}
}

// dumpStore lists an SDF object store: manifests first (the index a
// restart navigates by), then the remaining objects. Objects stored
// through the compression pipeline are reported with their codec and
// ratio (the frame header is self-describing), and objects stored
// through the dedup chunk store are reassembled from their recipes —
// both decoded before any manifest/batch parsing, so deduplicated,
// compressed and plain stores list alike. The chunk packs themselves
// are summarized in one line, read from their indexes alone.
func dumpStore(dir string) error {
	inner, err := storage.NewSDF(nil, 1, 1e9, dir)
	if err != nil {
		return err
	}
	// The same read stack -restart-from uses; its List hides the packs.
	stack := chunk.ReadStack(inner)
	names, err := stack.List("")
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d objects\n", dir, len(names))
	var plain []string
	for _, name := range names {
		if !cluster.IsManifestName(name) {
			plain = append(plain, name)
			continue
		}
		data, codecNote, err := getDecoded(stack, inner, name)
		if err != nil {
			fmt.Printf("  %-44s unreadable: %v\n", name, err)
			continue
		}
		m, err := cluster.DecodeManifest(data)
		if err != nil {
			fmt.Printf("  %-44s not a manifest: %v\n", name, err)
			continue
		}
		bytes := 0
		for _, b := range m.Blocks {
			bytes += b.Bytes
		}
		status := ""
		if m.Partial {
			status = " PARTIAL"
		}
		fmt.Printf("  %-44s job=%s root=%d it=%d covers=%d nodes blocks=%d payload=%dB%s%s\n",
			name, m.Job, m.Root, m.Iteration, len(m.Covers), len(m.Blocks), bytes, codecNote, status)
	}
	for _, name := range plain {
		data, codecNote, err := getDecoded(stack, inner, name)
		if err != nil {
			fmt.Printf("  %-44s unreadable: %v\n", name, err)
			continue
		}
		kind := "object"
		if b, err := cluster.DecodeBatch(data); err == nil {
			kind = fmt.Sprintf("batch it=%d blocks=%d", b.Iteration, len(b.Blocks))
		}
		fmt.Printf("  %-44s %s, %d bytes%s\n", name, kind, len(data), codecNote)
	}
	packs, chunks, chunkBytes, err := chunk.Packs(inner)
	if err != nil {
		return err
	}
	if packs > 0 {
		fmt.Printf("  chunk/: %d packs, %d chunks, %d bytes\n", packs, chunks, chunkBytes)
	}
	return nil
}

// getDecoded fetches one object fully decoded — reassembled from its
// chunk recipe and/or unwrapped from its compression frame as needed;
// the note describes the recipe (chunk count, raw size) and the codec
// ratio for framed objects ("" for plain ones).
func getDecoded(stack, inner storage.ObjectReader, name string) (data []byte, note string, err error) {
	raw, err := inner.Get(name)
	if err != nil {
		return nil, "", err
	}
	decoded := raw
	if storage.IsFramed(raw) {
		var h storage.FrameHeader
		decoded, h, err = storage.DecodeFrame(raw)
		if err != nil {
			return nil, "", err
		}
		note = fmt.Sprintf(" codec=%s %d->%dB (%.2fx)", h.Codec, h.RawSize, h.EncodedSize, h.Ratio())
		// A frame is a vector of parts; the ones its codec refused or
		// could not shrink stay raw.
		rawParts := 0
		for _, p := range h.Parts {
			if p.ElemSize == 0 {
				rawParts++
			}
		}
		note += fmt.Sprintf(" parts=%d (%d raw)", len(h.Parts), rawParts)
	}
	if !chunk.IsRecipe(decoded) {
		return decoded, note, nil
	}
	chunks, rawSize, err := chunk.DecodeRecipe(decoded)
	if err != nil {
		return nil, note, err
	}
	note += fmt.Sprintf(" dedup=%d chunks %dB raw", chunks, rawSize)
	data, err = stack.Get(name)
	return data, note, err
}

func dump(path string, withStats bool) error {
	r, err := sdf.Open(path)
	if err != nil {
		return err
	}
	defer r.Close()

	fmt.Printf("%s\n", path)
	if groups := r.Groups(); len(groups) > 0 {
		fmt.Printf("  groups: %s\n", strings.Join(groups, ", "))
	}
	var raw, enc int64
	for _, d := range r.Datasets() {
		raw += d.RawSize
		enc += d.EncSize
		fmt.Printf("  %-40s %-8s dims=%v codec=%-7s %8d -> %8d bytes\n",
			d.Path, d.Type, d.Dims, d.Codec, d.RawSize, d.EncSize)
		if withStats && d.Type == "float64" {
			vals, err := r.ReadFloat64s(d.Path)
			if err != nil {
				return err
			}
			f := insitu.Field{Name: d.Path, NZ: 1, NY: 1, NX: len(vals), Data: vals}
			m := insitu.ComputeMoments(f)
			fmt.Printf("  %40s min=%.4g max=%.4g mean=%.4g std=%.4g\n",
				"", m.Min, m.Max, m.Mean, m.Std)
		}
	}
	if enc > 0 {
		fmt.Printf("  total: %d datasets, %d -> %d bytes (%.2fx)\n",
			len(r.Datasets()), raw, enc, float64(raw)/float64(enc))
	}
	return nil
}
