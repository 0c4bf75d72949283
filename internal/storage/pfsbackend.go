package storage

import (
	"repro/internal/des"
	"repro/internal/pfs"
	"repro/internal/rng"
	"repro/internal/topology"
)

// PFS adapts the discrete-event Lustre model to the CostModel
// interface. It is a cost model only: it stores no objects.
type PFS struct {
	eng *des.Engine
	fs  *pfs.FS
}

// NewPFS wraps a fresh pfs.FS over the given parameters.
func NewPFS(eng *des.Engine, params topology.PFSParams, r *rng.Stream) *PFS {
	return &PFS{eng: eng, fs: pfs.New(eng, params, r)}
}

// SetBandwidthFactor forwards a mid-run platform shift — an absolute
// multiplier on nominal OST bandwidth — to the file-system model; the
// workload scenarios use it for their PFS bandwidth steps.
func (b *PFS) SetBandwidthFactor(factor float64) { b.fs.SetBandwidthFactor(factor) }

// Engine implements CostModel.
func (b *PFS) Engine() *des.Engine { return b.eng }

// Targets implements CostModel.
func (b *PFS) Targets() int { return b.fs.OSTCount() }

// BeginPhase implements CostModel: fresh per-OST congestion draws.
func (b *PFS) BeginPhase() { b.fs.BeginPhase() }

// Create implements CostModel.
func (b *PFS) Create(k func(int32), actor int32) { b.fs.Create(k, actor) }

// Open implements CostModel.
func (b *PFS) Open(k func(int32), actor int32) { b.fs.Open(k, actor) }

// Close implements CostModel.
func (b *PFS) Close(k func(int32), actor int32) { b.fs.Close(k, actor) }

// Write implements CostModel.
func (b *PFS) Write(target int, bytes float64, pat Pattern) *des.Future {
	return b.fs.Write(target%b.fs.OSTCount(), bytes, pfsPattern(pat))
}

// WriteChunk implements CostModel.
func (b *PFS) WriteChunk(target int, bytes float64, pat Pattern) *des.Future {
	return b.fs.WriteChunk(target%b.fs.OSTCount(), bytes, pfsPattern(pat))
}

// Read implements CostModel.
func (b *PFS) Read(target int, bytes float64, pat Pattern) *des.Future {
	return b.fs.Read(target%b.fs.OSTCount(), bytes, pfsPattern(pat))
}

// Accounting implements CostModel.
func (b *PFS) Accounting() Accounting {
	return Accounting{
		BytesWritten: b.fs.TotalBytes(),
		BytesRead:    b.fs.TotalBytesRead(),
		IOBusyTime:   b.fs.IOBusyTime(),
	}
}

func pfsPattern(p Pattern) pfs.Pattern {
	switch p {
	case SmallFile:
		return pfs.SmallFile
	case SharedFile:
		return pfs.SharedFile
	default:
		return pfs.BigSequential
	}
}
