package chunk

import "repro/internal/storage"

// cost is the dedup store's cost twin: the inner model under
// storage.Reduce with write/read as the layer's two cost functions, and
// its ledger overlaid on the inner accounting. The engine runs one
// process at a time, so the ledger needs no lock.
type cost struct {
	storage.CostModel
	newFraction float64
	avgChunk    float64

	hashTime   float64
	dedupSaved float64
}

// Cost prices the dedup store on the cost face. A write charges
// chunk+hash CPU on the dedicated core and forwards only newFraction of
// the volume — the model's stand-in for the overwrite fraction, the way
// storage.CodecProfile.AssumedRatio stands in for real compression —
// plus recipe overhead; a read forwards the full raw volume and charges
// verify CPU. A newFraction outside (0, 1] means 1: every chunk is new.
func Cost(inner storage.CostModel, newFraction float64) storage.CostModel {
	if newFraction <= 0 || newFraction > 1 {
		newFraction = 1
	}
	c := &cost{newFraction: newFraction, avgChunk: float64(Params{}.withDefaults().Avg)}
	c.CostModel = storage.Reduce(inner, c.write, c.read)
	return c
}

// write is the layer's write-side storage.TransferCost: it charges
// chunk+hash CPU and returns the wait time plus the deduplicated
// transfer volume — the new fraction of the payload, plus one recipe
// entry per average chunk.
func (c *cost) write(bytes float64) (wait, forwarded float64) {
	if bytes <= 0 {
		return 0, bytes
	}
	wait = bytes / DefaultHashRate
	forwarded = bytes*c.newFraction + bytes/c.avgChunk*recipeEntryLen + recipeHeaderLen
	if forwarded > bytes {
		forwarded = bytes // dedup never inflates a fully-new payload
	}
	c.hashTime += wait
	c.dedupSaved += bytes - forwarded
	return wait, forwarded
}

// read is the read-side storage.TransferCost, write's restore mirror:
// every chunk of the object must travel back regardless of how it
// deduplicated on the way in, so the full raw volume is forwarded and
// the verify CPU charged.
func (c *cost) read(bytes float64) (wait, forwarded float64) {
	if bytes <= 0 {
		return 0, bytes
	}
	wait = bytes / DefaultHashRate
	c.hashTime += wait
	return wait, bytes
}

// Accounting implements storage.CostModel: the inner ledger plus the
// dedup counters.
func (c *cost) Accounting() storage.Accounting {
	acc := c.CostModel.Accounting()
	acc.ChunkHashTime += c.hashTime
	acc.DedupBytesSaved += c.dedupSaved
	return acc
}
