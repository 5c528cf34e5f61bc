package main

import (
	"math"
	"sort"
	"time"
)

// e2e holds one run's end-to-end measurements.
type e2e struct {
	tput      float64 // OK SPENDs/s completing within okLimit, saturation phase
	latP50    float64 // ms, OK SPENDs of the fixed-rate phase, from due time
	latP99    float64
	readTput  float64 // OK reads/s completing within okLimit, read phase
	readP50   float64 // ms, OK reads of the read phase
	readP99   float64
	outage    float64 // ms
	genLagP99 float64 // ms, fixed-rate submission behind schedule

	latSamples, readSamples int
	attempted, failed       int
	// satRates and readRates are the per-repetition throughputs whose
	// medians are tput and readTput.
	satRates, readRates []float64
}

func (e *e2e) failFrac() float64 {
	if e.attempted == 0 {
		return 0
	}
	return float64(e.failed) / float64(e.attempted)
}

// percentile is the nearest-rank q-quantile of sorted values (0 if none).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// readTputPhase reports whether a phase's reads give read_tput_ops_s: the
// read probe, or the saturation phase of a workload that mixes reads in.
func (b *bench) readTputPhase(k phaseKind) bool {
	return k == phaseReadProbe || (k == phaseSaturation && b.wl.readShare > 0)
}

// readLatPhase reports whether a phase's reads give the read latencies:
// the fixed-rate phase of a workload that mixes reads in there, where the
// open loop keeps the read path below saturation, else the read probe.
func (b *bench) readLatPhase(k phaseKind) bool {
	if b.wl.rateReadShare > 0 {
		return k == phaseFixedRate
	}
	return k == phaseReadProbe
}

// measure derives the end-to-end metrics from the recorded ops.
// Throughputs are medians over the phase repetitions; latencies pool the
// samples of every repetition.
func (b *bench) measure() e2e {
	var e e2e
	var ops []*op
	for _, s := range b.sessions {
		ops = append(ops, s.ops...)
	}
	e.attempted = len(ops)
	satOK := make([]int, len(b.phases))
	readOK := make([]int, len(b.phases))
	var lat, lag, readLat []float64
	for _, o := range ops {
		if o.failed {
			e.failed++
		}
		if !o.ok || o.phase < 0 {
			continue
		}
		p := b.phases[o.phase]
		inWindow := o.end <= p.end && o.end-o.start <= int64(okLimit)
		switch {
		case o.read:
			if b.readTputPhase(p.kind) && inWindow {
				readOK[o.phase]++
			}
			if b.readLatPhase(p.kind) {
				readLat = append(readLat, ms(o.end-o.dueAt()))
			}
		case p.kind == phaseSaturation && inWindow:
			satOK[o.phase]++
		case p.kind == phaseFixedRate:
			lat = append(lat, ms(o.end-o.due))
			lag = append(lag, ms(o.start-o.due))
		}
	}
	var satRates, readRates []float64
	for i, p := range b.phases {
		secs := time.Duration(p.end - p.start).Seconds()
		if p.kind == phaseSaturation {
			satRates = append(satRates, float64(satOK[i])/secs)
		}
		if b.readTputPhase(p.kind) {
			readRates = append(readRates, float64(readOK[i])/secs)
		}
	}
	e.tput, e.readTput = median(satRates), median(readRates)
	e.satRates, e.readRates = satRates, readRates
	sort.Float64s(lat)
	sort.Float64s(lag)
	sort.Float64s(readLat)
	e.latP50, e.latP99 = percentile(lat, 0.50), percentile(lat, 0.99)
	e.readP50, e.readP99 = percentile(readLat, 0.50), percentile(readLat, 0.99)
	e.genLagP99 = percentile(lag, 0.99)
	e.latSamples, e.readSamples = len(lat), len(readLat)
	e.outage = b.outage(ops)
	return e
}

// outageMarkerEvery spaces the reference instants of a fault-free
// fixed-rate phase.
const outageMarkerEvery = 50 * time.Millisecond

// outage is the time from an instant to the first OK completion of an op
// due at or after it. On leader-crash the instant is the crash; on the
// fault-free workloads it is the median over instants every 50 ms of the
// fixed-rate phases, the no-fault floor the crash figure compares with.
func (b *bench) outage(ops []*op) float64 {
	var due, end []int64
	type pair struct{ due, end int64 }
	var ps []pair
	for _, o := range ops {
		if o.ok && o.phase >= 0 && b.phases[o.phase].kind == phaseFixedRate {
			ps = append(ps, pair{o.dueAt(), o.end})
		}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].due < ps[j].due })
	for _, p := range ps {
		due = append(due, p.due)
		end = append(end, p.end)
	}
	// sufMin[i] = earliest completion among ops due at or after due[i].
	sufMin := make([]int64, len(end)+1)
	sufMin[len(end)] = math.MaxInt64
	for i := len(end) - 1; i >= 0; i-- {
		sufMin[i] = min(end[i], sufMin[i+1])
	}
	gap := func(t int64) (float64, bool) {
		i := sort.Search(len(due), func(i int) bool { return due[i] >= t })
		if sufMin[i] == math.MaxInt64 {
			return 0, false
		}
		return ms(sufMin[i] - t), true
	}
	if b.crashAt > 0 {
		g, ok := gap(b.crashAt)
		if !ok {
			return ms(b.now() - b.crashAt)
		}
		return g
	}
	var gaps []float64
	for _, p := range b.phases {
		if p.kind != phaseFixedRate {
			continue
		}
		for t := p.start; t < p.end-int64(4*outageMarkerEvery); t += int64(outageMarkerEvery) {
			if g, ok := gap(t); ok {
				gaps = append(gaps, g)
			}
		}
	}
	return median(gaps)
}
