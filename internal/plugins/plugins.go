// Package plugins provides the built-in data-management plugins of the
// middleware, matching the uses the paper reports: aggregated SDF output
// (the "forward I/O operations to HDF5" case of §III.A), transparent
// compression (§IV.D), statistics, and in-situ visualization (§V).
//
// Importing this package registers every built-in under its XML name:
//
//	sdf-writer   dir=<path> codec=<none|gorilla|flate|rle>
//	stats        (computes per-variable moments each iteration)
//	visualize    dir=<path> bins=<n> render=<true|false>
package plugins

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/insitu"
	"repro/internal/meta"
	"repro/internal/sdf"
)

func init() {
	core.RegisterPlugin("sdf-writer", func(cfg map[string]string) (core.Plugin, error) {
		return NewSDFWriter(cfg["dir"], cfg["codec"])
	})
	core.RegisterPlugin("stats", func(cfg map[string]string) (core.Plugin, error) {
		return NewStats(), nil
	})
	core.RegisterPlugin("visualize", func(cfg map[string]string) (core.Plugin, error) {
		return NewVisualizer(cfg)
	})
}

// SDFWriter aggregates every block of an iteration into one SDF file per
// node — the paper's key I/O behaviour: "group the output of multiple
// processes into bigger files without the communication overhead of a
// collective I/O approach" (§IV.B).
type SDFWriter struct {
	Dir   string
	Codec string

	mu           sync.Mutex
	filesWritten int
	bytesIn      int64 // raw payload aggregated
	bytesOut     int64 // bytes on storage
}

// NewSDFWriter validates the codec name and returns the plugin.
func NewSDFWriter(dir, codec string) (*SDFWriter, error) {
	if _, err := compress.ByName(codec); err != nil {
		return nil, err
	}
	return &SDFWriter{Dir: dir, Codec: codec}, nil
}

// Name implements core.Plugin.
func (w *SDFWriter) Name() string { return "sdf-writer" }

// FilesWritten returns how many files the plugin produced.
func (w *SDFWriter) FilesWritten() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.filesWritten
}

// CompressionRatio returns aggregate raw/stored bytes across all files.
func (w *SDFWriter) CompressionRatio() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.bytesOut == 0 {
		return 0
	}
	return float64(w.bytesIn) / float64(w.bytesOut)
}

// OnEvent implements core.Plugin: on end_iteration it writes the
// node-aggregated file for that iteration.
func (w *SDFWriter) OnEvent(ctx *core.PluginContext, ev core.Event) error {
	refs := ctx.Index.Iteration(ev.Iteration)
	if len(refs) == 0 {
		return nil
	}
	name := fmt.Sprintf("%s-node%04d-it%06d", ctx.Config.Name, ctx.NodeID, ev.Iteration)
	dir := w.Dir
	if dir == "" {
		dir = ctx.OutputDir
	}
	if dir == "" {
		dir = "."
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	out, err := sdf.Create(filepath.Join(dir, name+".sdf"))
	if err != nil {
		return err
	}
	out.SetAttrInt("", "iteration", int64(ev.Iteration))
	out.SetAttrInt("", "node", int64(ctx.NodeID))
	var rawTotal int64
	for _, ref := range refs {
		v, ok := ctx.Config.Variables[ref.Key.Variable]
		if !ok {
			out.Close()
			return fmt.Errorf("block for undeclared variable %q", ref.Key.Variable)
		}
		path := fmt.Sprintf("%s/src%04d", ref.Key.Variable, ref.Key.Source)
		if err := out.WriteDataset(path, v.Layout.Type, v.Layout.Dims, ctx.BlockBytes(ref), w.Codec); err != nil {
			out.Close()
			return err
		}
		if v.Unit != "" {
			out.SetAttrString(path, "unit", v.Unit)
		}
		rawTotal += int64(ref.Size)
	}
	stored := out.BytesWritten()
	if err := out.Close(); err != nil {
		return err
	}
	w.mu.Lock()
	w.filesWritten++
	w.bytesIn += rawTotal
	w.bytesOut += stored
	w.mu.Unlock()
	return nil
}

// Stats computes per-variable moments on the dedicated core each
// iteration — the "statistical analysis" use of the plugin system.
type Stats struct {
	mu     sync.Mutex
	latest map[string]insitu.Moments
	rounds int
}

// NewStats returns an empty Stats plugin.
func NewStats() *Stats { return &Stats{latest: map[string]insitu.Moments{}} }

// Name implements core.Plugin.
func (s *Stats) Name() string { return "stats" }

// Latest returns the most recent moments for a variable.
func (s *Stats) Latest(variable string) (insitu.Moments, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.latest[variable]
	return m, ok
}

// Rounds returns how many end-of-iteration passes ran.
func (s *Stats) Rounds() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rounds
}

// OnEvent implements core.Plugin.
func (s *Stats) OnEvent(ctx *core.PluginContext, ev core.Event) error {
	perVar := map[string][]float64{}
	for _, ref := range ctx.Index.Iteration(ev.Iteration) {
		v := ctx.Config.Variables[ref.Key.Variable]
		if v == nil || v.Layout.Type != meta.Float64 {
			continue
		}
		vals := compress.BytesFloat64(ctx.BlockBytes(ref))
		perVar[ref.Key.Variable] = append(perVar[ref.Key.Variable], vals...)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, vals := range perVar {
		f := insitu.Field{Name: name, NZ: 1, NY: 1, NX: len(vals), Data: vals}
		s.latest[name] = insitu.ComputeMoments(f)
	}
	s.rounds++
	return nil
}

// Visualizer runs the in-situ pipeline (histogram, isosurface, render)
// on the dedicated core and writes one PGM image per variable per
// iteration — the Damaris-coupled visualization of §V.B.
type Visualizer struct {
	Dir      string
	Pipeline insitu.Pipeline

	mu      sync.Mutex
	results []insitu.Result
}

// NewVisualizer builds a Visualizer from XML plugin attributes.
func NewVisualizer(cfg map[string]string) (*Visualizer, error) {
	p := insitu.DefaultPipeline()
	if b := cfg["bins"]; b != "" {
		n, err := strconv.Atoi(b)
		if err != nil {
			return nil, fmt.Errorf("visualize: bad bins %q", b)
		}
		p.Bins = n
	}
	if r := cfg["render"]; r != "" {
		on, err := strconv.ParseBool(r)
		if err != nil {
			return nil, fmt.Errorf("visualize: bad render %q", r)
		}
		p.Render = on
	}
	return &Visualizer{Dir: cfg["dir"], Pipeline: p}, nil
}

// Name implements core.Plugin.
func (v *Visualizer) Name() string { return "visualize" }

// Results returns the analysis results so far.
func (v *Visualizer) Results() []insitu.Result {
	v.mu.Lock()
	defer v.mu.Unlock()
	return append([]insitu.Result(nil), v.results...)
}

// OnEvent implements core.Plugin: reassembles each 3-D variable from the
// iteration's blocks (one block per source, stacked along z) and runs
// the pipeline on it.
func (v *Visualizer) OnEvent(ctx *core.PluginContext, ev core.Event) error {
	for _, name := range ctx.Config.VariableNames() {
		varMeta := ctx.Config.Variables[name]
		if varMeta.Layout.Type != meta.Float64 || len(varMeta.Layout.Dims) != 3 {
			continue
		}
		refs := ctx.Index.Variable(name, ev.Iteration)
		if len(refs) == 0 {
			continue
		}
		dims := varMeta.Layout.Dims
		field := insitu.Field{
			Name: name,
			NZ:   dims[0] * len(refs),
			NY:   dims[1],
			NX:   dims[2],
		}
		for _, ref := range refs {
			field.Data = append(field.Data, compress.BytesFloat64(ctx.BlockBytes(ref))...)
		}
		res, err := v.Pipeline.Analyze(field, ev.Iteration)
		if err != nil {
			return err
		}
		if v.Pipeline.Render && v.Dir != "" {
			if err := os.MkdirAll(v.Dir, 0o755); err != nil {
				return err
			}
			img := fmt.Sprintf("%s-node%04d-it%06d-%s.pgm", ctx.Config.Name, ctx.NodeID, ev.Iteration, name)
			if err := os.WriteFile(filepath.Join(v.Dir, img), res.Image.EncodePGM(), 0o644); err != nil {
				return err
			}
		}
		v.mu.Lock()
		v.results = append(v.results, res)
		v.mu.Unlock()
	}
	return nil
}
