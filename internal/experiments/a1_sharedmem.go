package experiments

import (
	"time"

	"repro/internal/shm"
	"repro/internal/stats"
)

// runA1 is the ablation behind the central design choice of §III.A:
// Damaris communicates through shared memory so data crosses the
// client→service boundary with a single copy, where message-passing
// couplings "involve multiple copies of data".
//
// It moves the same volume from producers to a consumer two ways:
//
//   - shared-memory path: the producer copies into the segment, the
//     consumer reads the block in place (1 copy);
//   - message-passing path: the producer marshals into a message (copy
//     1), the transport hands it over, the consumer unmarshals into its
//     own buffer (copy 2) — local MPI semantics.
//
// The copy counts are deterministic; the wall-clock times are reported
// for context.
func runA1(p *Pass, rep *Report) error {
	const (
		blockSize = 1 << 20
		blocks    = 256
	)

	shmCopies, shmTime, err := shmPath(blockSize, blocks)
	if err != nil {
		return err
	}
	msgCopies, msgTime := messagePath(blockSize, blocks)

	table := stats.NewTable(
		"moving 256 MB from simulation cores to the data service",
		"path", "bytes_copied_MB", "copies_per_byte", "wall_ms").Measured("wall_ms")
	table.AddRow("shared-memory (damaris)", float64(shmCopies)/1e6,
		float64(shmCopies)/float64(blockSize*blocks), shmTime.Seconds()*1e3)
	table.AddRow("message-passing", float64(msgCopies)/1e6,
		float64(msgCopies)/float64(blockSize*blocks), msgTime.Seconds()*1e3)
	rep.Tables = []*stats.Table{table}
	rep.Checks = []Check{
		{
			Name:     "copies per byte, shared memory",
			Paper:    "avoid unnecessary copies (§III.A)",
			Measured: float64(shmCopies) / float64(blockSize*blocks), Unit: "", Lo: 1, Hi: 1,
		},
		{
			Name:     "copies per byte, message passing",
			Paper:    "involving multiple copies of data (§III.A)",
			Measured: float64(msgCopies) / float64(blockSize*blocks), Unit: "", Lo: 2,
		},
	}
	return nil
}

// shmPath pushes blocks through a real segment: one copy in, consumed in
// place.
func shmPath(blockSize, blocks int) (copied int64, elapsed time.Duration, err error) {
	seg, err := shm.NewSegment(8 << 20)
	if err != nil {
		return 0, 0, err
	}
	src := make([]byte, blockSize)
	for i := range src {
		src[i] = byte(i)
	}
	sink := byte(0)
	start := time.Now()
	for b := 0; b < blocks; b++ {
		blk, err := seg.AllocWait(blockSize)
		if err != nil {
			return 0, 0, err
		}
		copied += int64(copy(blk.Bytes(), src)) // the single copy
		// Consumer side: read in place, no copy.
		sink ^= blk.Bytes()[b%blockSize]
		blk.Free()
	}
	elapsed = time.Since(start)
	_ = sink
	return copied, elapsed, nil
}

// messagePath pushes the same volume through a queue with value
// semantics: marshal copy on send, unmarshal copy on receive.
func messagePath(blockSize, blocks int) (copied int64, elapsed time.Duration) {
	q := shm.NewQueue[[]byte](8)
	src := make([]byte, blockSize)
	for i := range src {
		src[i] = byte(i)
	}
	done := make(chan int64)
	go func() {
		var received int64
		dst := make([]byte, blockSize)
		for {
			msg, ok := q.Recv()
			if !ok {
				done <- received
				return
			}
			received += int64(copy(dst, msg)) // copy 2: into the consumer
		}
	}()
	start := time.Now()
	for b := 0; b < blocks; b++ {
		msg := make([]byte, blockSize)
		copied += int64(copy(msg, src)) // copy 1: marshal into the message
		q.Send(msg)
	}
	q.Close()
	copied += <-done
	elapsed = time.Since(start)
	return copied, elapsed
}
