package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"smartchain/internal/client"
	"smartchain/internal/coin"
	"smartchain/internal/core"
	"smartchain/internal/crypto"
	"smartchain/internal/smr"
	"smartchain/internal/storage"
	"smartchain/internal/transport"
)

var errPoolExhausted = errors.New("session coin pool exhausted")

// inputs are everything the seed determines: session keys, the coins each
// session owns, and the bulk owner. Replicas get the same coins through
// coin.Service.Prepopulate, so every replica holds identical IDs.
type inputs struct {
	seed     int64
	sessions []sessionInputs
	bulk     *crypto.KeyPair
	bulkUTXO int
}

type sessionInputs struct {
	key  *crypto.KeyPair
	sink *crypto.KeyPair
	pool []coin.CoinID
}

func makeInputs(wl *workload, seed int64, sessions int, total time.Duration) *inputs {
	label := fmt.Sprintf("perfbench/%s/%d", wl.name, seed)
	in := &inputs{
		seed:     seed,
		bulk:     crypto.SeededKeyPair(label+"/bulk", 0),
		bulkUTXO: wl.bulkUTXO,
	}
	n := wl.poolSize(total, sessions)
	scratch := coin.NewService(nil)
	for i := 0; i < sessions; i++ {
		key := crypto.SeededKeyPair(label+"/session", int64(i))
		in.sessions = append(in.sessions, sessionInputs{
			key:  key,
			sink: crypto.SeededKeyPair(label+"/sink", int64(i)),
			pool: scratch.Prepopulate(key.Public(), n, coinValue),
		})
	}
	return in
}

// utxoCount is the size of every replica's initial UTXO set.
func (in *inputs) utxoCount() int {
	n := in.bulkUTXO
	for _, s := range in.sessions {
		n += len(s.pool)
	}
	return n
}

// newService builds one replica's initial state.
func (in *inputs) newService() *coin.Service {
	svc := coin.NewService(nil)
	for _, s := range in.sessions {
		svc.Prepopulate(s.key.Public(), len(s.pool), coinValue)
	}
	if in.bulkUTXO > 0 {
		svc.Prepopulate(in.bulk.Public(), in.bulkUTXO, 1)
	}
	return svc
}

// bench is one running deployment with its client sessions.
type bench struct {
	wl      *workload
	in      *inputs
	origin  time.Time
	cluster *core.Cluster

	// Set only on the traced run.
	rec      *recorder
	counters *layerCounters

	disksMu sync.Mutex
	disks   []*storage.SimDisk

	sessions []*session
	phases   []phaseRun
	crashAt  int64 // ns since origin; 0 = no crash

	setupEpochChanges int64
}

type phaseRun struct {
	kind         phaseKind
	start, end   int64 // ns since origin
	epochChanges int64
}

func (b *bench) now() int64 { return int64(time.Since(b.origin)) }

// newBench starts the deployment and its sessions and settles them with a
// few acknowledged SPENDs per session; the returned duration is the
// set-up time.
func newBench(wl *workload, in *inputs, traced bool, origin time.Time) (*bench, time.Duration, error) {
	b := &bench{wl: wl, in: in, origin: origin}
	if traced {
		b.rec = newRecorder(origin)
		b.counters = &layerCounters{}
	}
	runtime.GC() // the previous deployment's garbage is not this set-up's cost
	start := time.Now()
	cfg := core.ClusterConfig{
		N:                4,
		AppFactory:       b.newApp,
		Persistence:      wl.persistence,
		Storage:          wl.storage,
		Verify:           wl.verify,
		Pipeline:         true,
		PipelineDepth:    pipelineDepth,
		MaxBatch:         wl.maxBatch,
		ConsensusTimeout: consensusTimeout,
		ChainID:          fmt.Sprintf("perfbench-%s-%d", wl.name, in.seed),
		DiskFactory:      b.newDisk,
		TCPWire:          wl.tcp,
	}
	if traced {
		cfg.WrapEndpoint = func(_ int32, ep transport.Endpoint) transport.Endpoint {
			return &tracedEndpoint{Endpoint: ep, c: b.counters}
		}
	}
	cluster, err := core.NewCluster(cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("start cluster: %w", err)
	}
	b.cluster = cluster
	for id, cn := range cluster.Nodes {
		if a, ok := cn.App.(*tracedApp); ok {
			a.replica.Store(id)
		}
	}
	members := cluster.Members()
	for i := range in.sessions {
		var ep transport.Endpoint = cluster.ClientEndpoint()
		if traced {
			ep = &tracedEndpoint{Endpoint: ep, c: b.counters}
		}
		s := &session{
			b:     b,
			idx:   i,
			in:    &in.sessions[i],
			proxy: client.New(ep, in.sessions[i].key, members, client.WithTimeout(opTimeout)),
			rng:   rand.New(rand.NewSource(in.seed*7919 + int64(i))),
		}
		b.sessions = append(b.sessions, s)
	}
	for _, s := range b.sessions {
		for k := 0; k < warmupOps; k++ {
			if err := s.launch(&op{phase: -1, due: -1}, nil); err != nil {
				b.stop()
				return nil, 0, err
			}
		}
	}
	for _, s := range b.sessions {
		s.inflight.Wait()
		for _, o := range s.ops {
			if !o.ok {
				b.stop()
				return nil, 0, fmt.Errorf("warm-up SPEND of session %d failed", s.idx)
			}
		}
	}
	setup := time.Since(start)
	b.setupEpochChanges = b.maxEpochChanges()
	return b, setup, nil
}

func (b *bench) newApp() core.Application {
	svc := b.in.newService()
	if b.rec == nil {
		return svc
	}
	a := &tracedApp{svc: svc, rec: b.rec, c: b.counters}
	a.replica.Store(-1)
	return a
}

func (b *bench) newDisk() *storage.SimDisk {
	d := storage.HDDProfile()
	b.disksMu.Lock()
	b.disks = append(b.disks, d)
	b.disksMu.Unlock()
	return d
}

func (b *bench) stop() {
	for _, s := range b.sessions {
		s.proxy.Close()
	}
	for _, s := range b.sessions {
		s.inflight.Wait()
	}
	b.cluster.Stop()
}

// live returns the running replicas in ID order.
func (b *bench) live() []*core.ClusterNode {
	var out []*core.ClusterNode
	for id := int32(0); id < int32(len(b.cluster.Nodes)); id++ {
		cn := b.cluster.Nodes[id]
		if cn != nil && cn.Node != nil && !cn.Crashed() {
			out = append(out, cn)
		}
	}
	return out
}

// maxEpochChanges is the highest epoch-change count among live replicas.
func (b *bench) maxEpochChanges() int64 {
	var m int64
	for _, cn := range b.live() {
		m = max(m, cn.Node.Stats().EpochChanges)
	}
	return m
}

// runPhases runs the workload's schedule, splitting total among phases.
func (b *bench) runPhases(total time.Duration) error {
	for _, p := range b.wl.schedule() {
		dur := time.Duration(p.frac * float64(total))
		if err := b.runPhase(p.kind, dur); err != nil {
			return err
		}
	}
	return nil
}

func (b *bench) runPhase(kind phaseKind, dur time.Duration) error {
	// Collect the previous phase's garbage now, so that its collection
	// does not land inside this phase's measurements.
	runtime.GC()
	idx := len(b.phases)
	epochBefore := b.maxEpochChanges()
	startT := time.Now()
	ph := phaseRun{kind: kind, start: b.now()}
	endT := startT.Add(dur)
	ph.end = ph.start + int64(dur)

	var wg sync.WaitGroup
	for _, s := range b.sessions {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch kind {
			case phaseSaturation:
				s.closedLoop(idx, endT, b.wl.readShare)
			case phaseReadProbe:
				s.closedLoop(idx, endT, readCount)
			case phaseFixedRate:
				s.openLoop(idx, startT, dur, b.wl.rate, b.wl.rateReadShare)
			}
		}()
	}
	if kind == phaseFixedRate && b.wl.crash && b.crashAt == 0 {
		time.Sleep(time.Until(startT.Add(time.Duration(crashFrac * float64(dur)))))
		leader := b.cluster.Leader()
		b.crashAt = b.now()
		if err := b.cluster.Crash(leader); err != nil {
			wg.Wait()
			return fmt.Errorf("crash leader %d: %w", leader, err)
		}
	}
	wg.Wait()
	for _, s := range b.sessions {
		s.inflight.Wait()
	}
	ph.epochChanges = b.maxEpochChanges() - epochBefore
	b.phases = append(b.phases, ph)
	for _, s := range b.sessions {
		if s.err != nil {
			return fmt.Errorf("session %d: %w", s.idx, s.err)
		}
	}
	return nil
}

// op is one invocation. Times are ns since the bench origin; due is -1 in
// the closed-loop phases, where an op is due when it is submitted.
type op struct {
	phase    int
	read     bool
	count    bool   // a UTXO-count read rather than a balance read
	seq      uint64 // the proxy's sequence number, the span id
	due      int64
	start    int64
	end      int64
	submitNS int64
	ok       bool
	// failed marks an op the proxy gave up on (timeout, closed proxy, read
	// floor not reached): a liveness failure, counted in failed and
	// fail_frac. rejected marks a reply a correct program never gives:
	// a SPEND of a session's own unspent coin whose result is not OK, or
	// a result that does not parse. It also counts as failed, and the
	// checks report every rejected op as a violation.
	failed   bool
	rejected bool

	in, out coin.CoinID
	txHash  crypto.Hash

	// balance is a read's result. A balance read must lie in [lo, hi],
	// bounds set by the SPENDs acknowledged before issue and submitted
	// before completion; a count read must equal hi, the UTXO count every
	// replica starts with, since 1-in/1-out SPENDs keep it constant.
	balance, hi, lo uint64
}

func (o *op) dueAt() int64 {
	if o.due < 0 {
		return o.start
	}
	return o.due
}

// session is one client.Proxy pipelining invocations. Its generator runs
// on one goroutine per phase; each in-flight op has a waiter that stamps
// its completion, since a client.Future carries no completion time.
type session struct {
	b     *bench
	idx   int
	in    *sessionInputs
	proxy *client.Proxy
	rng   *rand.Rand

	// Generator-goroutine state.
	next      int
	ordered   uint64
	unordered uint64
	err       error

	mu       sync.Mutex
	acked    int64
	spent    int64
	ops      []*op
	inflight sync.WaitGroup
}

func (s *session) initialBalance() uint64 { return uint64(len(s.in.pool)) * coinValue }

// readCount as a read share makes every op a UTXO-count read.
const readCount = -1

func (s *session) newOp(phase int, due int64, readShare float64) *op {
	o := &op{phase: phase, due: due}
	switch {
	case readShare == readCount:
		o.read, o.count = true, true
	case readShare > 0:
		o.read = s.rng.Float64() < readShare
	}
	return o
}

// launch builds and submits o; release, when set, runs once o completes.
func (s *session) launch(o *op, release func()) error {
	var payload []byte
	switch {
	case o.count:
		payload = core.WrapAppOp(coin.EncodeUTXOCountQuery())
		s.unordered++
		o.seq = s.unordered | smr.UnorderedSeqBit
		o.hi = uint64(s.b.in.utxoCount())
	case o.read:
		payload = core.WrapAppOp(coin.EncodeBalanceQuery(s.in.key.Public()))
		s.unordered++
		o.seq = s.unordered | smr.UnorderedSeqBit
		s.mu.Lock()
		o.hi = s.initialBalance() - coinValue*uint64(s.acked)
		s.mu.Unlock()
	default:
		if s.next >= len(s.in.pool) {
			return errPoolExhausted
		}
		id := s.in.pool[s.next]
		s.next++
		tx, err := coin.NewSpend(s.in.key, uint64(s.next), []coin.CoinID{id},
			[]coin.Output{{Owner: s.in.sink.Public(), Value: coinValue}})
		if err != nil {
			return fmt.Errorf("build SPEND: %w", err)
		}
		o.in, o.out, o.txHash = id, tx.OutputIDs()[0], tx.Hash()
		payload = core.WrapAppOp(tx.Encode())
		s.ordered++
		o.seq = s.ordered
		s.mu.Lock()
		s.spent++
		s.mu.Unlock()
	}
	ctx := context.Background()
	o.start = s.b.now()
	var f *client.Future
	if o.read {
		f = s.proxy.InvokeUnorderedAsync(ctx, payload)
	} else {
		f = s.proxy.InvokeAsync(ctx, payload)
	}
	o.submitNS = s.b.now() - o.start
	s.mu.Lock()
	s.ops = append(s.ops, o)
	s.mu.Unlock()
	s.inflight.Add(1)
	go func() {
		defer s.inflight.Done()
		<-f.Done()
		end := s.b.now()
		res, err := f.Result()
		s.finish(o, end, res, err)
		if release != nil {
			release()
		}
	}()
	return nil
}

func (s *session) finish(o *op, end int64, res []byte, err error) {
	if rec := s.b.rec; rec != nil {
		id := s.proxy.ID()
		rec.add(span{name: spanSubmit, replica: -1, client: id, seq: o.seq, start: o.start, end: o.start + o.submitNS})
		rec.add(span{name: spanOp, replica: -1, client: id, seq: o.seq, start: o.start, end: end})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	o.end = end
	if err != nil {
		o.failed = true
		return
	}
	if o.read {
		bal, perr := coin.ParseUint64Result(res)
		if perr != nil {
			o.failed, o.rejected = true, true
			return
		}
		o.balance, o.ok = bal, true
		if o.count {
			o.lo = o.hi
		} else {
			o.lo = s.initialBalance() - coinValue*uint64(s.spent)
		}
		return
	}
	code, _, perr := coin.ParseResult(res)
	if perr != nil || code != coin.ResultOK {
		o.failed, o.rejected = true, true
		return
	}
	o.ok = true
	s.acked++
}

// closedLoop keeps up to the workload's window of ops in flight until end
// (probeWindow in the read probe).
func (s *session) closedLoop(phase int, end time.Time, readShare float64) {
	win := s.b.wl.window
	if readShare == readCount {
		win = probeWindow
	}
	sem := make(chan struct{}, win)
	for {
		sem <- struct{}{}
		if !time.Now().Before(end) {
			return
		}
		o := s.newOp(phase, -1, readShare)
		if err := s.launch(o, func() { <-sem }); err != nil {
			s.err = err
			return
		}
	}
}

// openLoop submits ops as a Poisson process at this session's share of
// rate, whatever the completions do: independent users, whose arrivals do
// not line up with the replicas' periodic work (a fixed 5 ms spacing would
// beat against the 5 ms disk sync).
func (s *session) openLoop(phase int, start time.Time, dur time.Duration, rate, readShare float64) {
	perSession := rate / float64(len(s.b.sessions))
	base := s.b.now() - int64(time.Since(start))
	var at time.Duration
	for {
		at += time.Duration(s.rng.ExpFloat64() / perSession * float64(time.Second))
		if at >= dur {
			return
		}
		time.Sleep(time.Until(start.Add(at)))
		o := s.newOp(phase, base+int64(at), readShare)
		if err := s.launch(o, nil); err != nil {
			s.err = err
			return
		}
	}
}
