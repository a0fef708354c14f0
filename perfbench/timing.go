package main

import (
	"math"
	goruntime "runtime"
	"time"
)

// userHZ is the clock-tick rate /proc/stat counts in on Linux.
const userHZ = 100

// batch is one stretch of timed operations (a Cluster.Train call, or one
// table1-build suite pass) and the time the hypervisor stole from this
// machine's CPUs while it ran.
type batch struct {
	ops   []time.Duration
	wall  float64 // seconds
	steal int64   // clock ticks, summed over CPUs
}

// timeBatch runs f, which returns the durations of the operations it
// timed, as one batch.
func timeBatch(f func() ([]time.Duration, error)) (batch, error) {
	steal, start := readSteal(), time.Now()
	ops, err := f()
	return batch{ops: ops, wall: since(start), steal: readSteal() - steal}, err
}

// stealShare is the share of the machine's CPU time the hypervisor gave to
// other tenants during b, capped at 0.9.
func (b batch) stealShare() float64 {
	if b.wall <= 0 {
		return 0
	}
	return math.Min(0.9, float64(b.steal)/(b.wall*userHZ*float64(goruntime.NumCPU())))
}

// unstolen scales each batch's operations and wall time by the share of
// CPU time the hypervisor left this machine during the batch. On a shared
// host another tenant's load comes and goes in stretches of seconds to
// minutes; while it lasts every round runs slower by about the share it
// steals, and without this a busy neighbour reads as a regression. The
// latency and throughput metrics come from scaled batches; the raw figures
// are printed beside them.
func unstolen(bs []batch) []batch {
	out := make([]batch, len(bs))
	for i, b := range bs {
		keep := 1 - b.stealShare()
		ops := make([]time.Duration, len(b.ops))
		for j, d := range b.ops {
			ops[j] = time.Duration(float64(d) * keep)
		}
		out[i] = batch{ops: ops, wall: b.wall * keep}
	}
	return out
}

// opsOf concatenates the batches' operations and sums their wall time.
func opsOf(bs []batch) (ops []time.Duration, wall float64) {
	for _, b := range bs {
		ops = append(ops, b.ops...)
		wall += b.wall
	}
	return ops, wall
}

// stealPct is the share of the machine's CPU time stolen during the
// batches, in percent.
func stealPct(bs []batch) float64 {
	var ticks int64
	var wall float64
	for _, b := range bs {
		ticks += b.steal
		wall += b.wall
	}
	if wall == 0 {
		return 0
	}
	return 100 * float64(ticks) / (wall * userHZ * float64(goruntime.NumCPU()))
}
