// Package plugins provides the built-in node-local analysis plugins of
// the middleware: statistics and in-situ visualization (§V). Durable
// output is not a plugin: the cluster's tree roots store each iteration
// through a storage.ObjectStore (internal/cluster), at any node count.
//
// Importing this package registers every built-in under its XML name:
//
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
)

func init() {
	core.RegisterPlugin("stats", func(cfg map[string]string) (core.Plugin, error) {
		return NewStats(), nil
	})
	core.RegisterPlugin("visualize", func(cfg map[string]string) (core.Plugin, error) {
		return NewVisualizer(cfg)
	})
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
