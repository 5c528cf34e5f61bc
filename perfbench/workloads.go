package main

import (
	"time"

	"smartchain/internal/core"
	"smartchain/internal/smr"
)

// workload is one deployment plus the traffic the sessions drive against
// it. Every workload runs the same phase kinds so that every end-to-end
// metric has a value on every workload; the fractions split --seconds.
type workload struct {
	name string
	why  string

	// tcp runs the replicas and sessions over loopback TCP (tcpnet) instead
	// of the in-memory network.
	tcp         bool
	persistence core.Persistence
	storage     smr.StorageMode
	verify      smr.VerifyMode
	maxBatch    int

	// rate is the whole benchmark's open-loop rate in the fixed-rate
	// phase, ops/s, shared evenly by the sessions.
	rate float64
	// readShare and rateReadShare are the fractions of operations that are
	// balance reads in the saturation and the fixed-rate phases.
	readShare, rateReadShare float64
	// bulkUTXO is the size of the UTXO set owned by a third key that no
	// session touches; it makes every balance read scan that many coins.
	bulkUTXO int
	// crash kills the leader crashFrac into the first fixed-rate phase.
	crash bool
	// window is each session's in-flight cap in the saturation phase.
	window int

	// prelude runs once, then cycle runs `repetitions` times. Fractions are
	// shares of --seconds; those of cycle are shared among its repetitions.
	prelude []phaseSpec
	cycle   []phaseSpec

	// maxTxPerSec sizes each session's coin pool: a session never spends
	// faster than this, so the pool cannot run dry. Exhausting it anyway
	// fails the run instead of silently ending a phase early.
	maxTxPerSec float64
}

type phaseKind int

const (
	phaseSaturation phaseKind = iota
	phaseFixedRate
	phaseReadProbe
)

var phaseNames = [...]string{"saturation", "fixed_rate", "read_probe"}

func (k phaseKind) String() string { return phaseNames[k] }

type phaseSpec struct {
	kind phaseKind
	frac float64
}

const (
	// repetitions is how often a workload's cycle of phases runs. Metrics
	// of closed-loop phases are medians over the repetitions: short drained
	// repetitions vary less from run to run than one long phase, whose
	// batching can settle into a faster or slower regime, and the median
	// discards a repetition that a burst of host contention slowed.
	repetitions = 5
	// probeWindow is each session's in-flight cap in the read probe: enough
	// to saturate the unordered read path, few enough that queueing does
	// not dominate read latency.
	probeWindow = 16
	// okLimit is the latency within which a saturation-phase completion
	// counts towards throughput.
	okLimit = time.Second
	// opTimeout is the deadline of every invocation; an operation that
	// misses it is a failure.
	opTimeout = 10 * time.Second
	// consensusTimeout is the leader-progress timeout of every replica. It
	// is not raised to hide fault-free leader changes: those are counted.
	consensusTimeout = 2 * time.Second
	// pipelineDepth is the ordering window W.
	pipelineDepth = 8
	// coinValue is the value of every session coin; each SPEND moves one
	// whole coin to the session's sink address.
	coinValue = 10
	// crashFrac places the leader crash into the fixed-rate phase.
	crashFrac = 1.0 / 3
	// warmupOps are SPENDs each session completes during set-up, so that
	// election, connections and caches are settled before timing.
	warmupOps = 4
)

var strongCycle = []phaseSpec{
	{phaseSaturation, 0.45}, {phaseFixedRate, 0.40}, {phaseReadProbe, 0.15},
}

var workloads = []*workload{
	{
		name:        "spend-strong",
		window:      64,
		why:         "headline config on loopback TCP: HDD sync + PERSIST quorum, request verification, consensus and tcpnet framing do most of the work",
		tcp:         true,
		persistence: core.PersistenceStrong,
		storage:     smr.StorageSync,
		verify:      smr.VerifyParallel,
		maxBatch:    512,
		rate:        200,
		cycle:       strongCycle,
		maxTxPerSec: 3000,
	},
	{
		name:          "read-mix",
		window:        16,
		why:           "spend-strong's settings on memnet plus 40k bulk UTXOs, 80% session balance reads: reads scan every UTXO under execMu (known defect: at 120k UTXOs no write commits)",
		persistence:   core.PersistenceStrong,
		storage:       smr.StorageSync,
		verify:        smr.VerifyParallel,
		maxBatch:      512,
		rate:          200,
		readShare:     0.8,
		rateReadShare: 0.5,
		bulkUTXO:      40000,
		cycle:         []phaseSpec{{phaseSaturation, 0.35}, {phaseFixedRate, 0.65}},
		maxTxPerSec:   600,
	},
	{
		name:        "leader-crash",
		window:      64,
		why:         "spend-strong's settings on memnet at 200 tx/s with the leader crashed mid-phase: the only workload that runs the regency-wide epoch change",
		persistence: core.PersistenceStrong,
		storage:     smr.StorageSync,
		verify:      smr.VerifyParallel,
		maxBatch:    512,
		rate:        200,
		crash:       true,
		prelude:     []phaseSpec{{phaseFixedRate, 0.50}},
		cycle:       []phaseSpec{{phaseSaturation, 0.35}, {phaseReadProbe, 0.15}},
		maxTxPerSec: 3000,
	},
}

// schedule is the run's phases in order, each with its share of
// --seconds.
func (w *workload) schedule() []phaseSpec {
	out := append([]phaseSpec(nil), w.prelude...)
	for i := 0; i < repetitions; i++ {
		for _, p := range w.cycle {
			out = append(out, phaseSpec{p.kind, p.frac / repetitions})
		}
	}
	return out
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// poolSize is the number of coins one session owns: enough for the
// saturation phase at maxTxPerSec and the fixed-rate phase at rate, with
// a margin for the generator running early.
func (w *workload) poolSize(total time.Duration, sessions int) int {
	var spends float64
	for _, p := range w.schedule() {
		d := p.frac * total.Seconds()
		switch p.kind {
		case phaseSaturation:
			spends += w.maxTxPerSec * d * (1 - w.readShare)
		case phaseFixedRate:
			spends += w.rate * d * 1.1 * (1 - w.rateReadShare)
		}
	}
	perSession := spends / float64(sessions)
	return int(perSession) + warmupOps + 2*w.window
}
