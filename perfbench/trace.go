package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"smartchain/internal/coin"
	"smartchain/internal/consensus"
	"smartchain/internal/core"
	"smartchain/internal/exec"
	"smartchain/internal/smr"
	"smartchain/internal/transport"
)

// Span names. A span's parent is the client.op span with the same
// (client, seq) id; client.op and coin.execute_batch are roots.
const (
	spanOp           = "client.op"
	spanSubmit       = "client.submit"
	spanVerifyOp     = "smr.verify_op"
	spanRead         = "coin.read"
	spanExecuteBatch = "coin.execute_batch"
)

var spanNames = []string{spanOp, spanSubmit, spanVerifyOp, spanRead, spanExecuteBatch}

// span is one timed call at a layer boundary. Times are nanoseconds since
// the recorder's origin. For coin.execute_batch, seq holds the block number.
type span struct {
	name    string
	replica int32 // -1 on the client side
	client  int64
	seq     uint64
	start   int64
	end     int64
}

// maxSpans bounds the recorder's memory; spans beyond it are counted, not
// kept.
const maxSpans = 2_000_000

// recorder keeps spans in memory for the traced run and writes them out
// when the run ends. The untraced run has no recorder and no wrappers.
type recorder struct {
	origin time.Time

	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newRecorder(origin time.Time) *recorder { return &recorder{origin: origin} }

func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

// count returns the spans kept and those dropped beyond maxSpans.
func (r *recorder) count() (kept int, dropped int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans), r.dropped
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, s)
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// writeJSONL writes one JSON object per span.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create span file: %w", err)
	}
	w := bufio.NewWriter(f)
	r.mu.Lock()
	for _, s := range r.spans {
		parent := ""
		if s.name != spanOp && s.name != spanExecuteBatch {
			parent = fmt.Sprintf("%s:%d/%d", spanOp, s.client, s.seq)
		}
		fmt.Fprintf(w, "{\"name\":%q,\"id\":\"%d/%d\",\"replica\":%d,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%q}\n",
			s.name, s.client, s.seq, s.replica, s.start, s.end, parent)
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write span file: %w", err)
	}
	return f.Close()
}

type opKey struct {
	client int64
	seq    uint64
}

// selfTimes returns, per span name, the mean self time in µs and the span
// count, plus the number of child spans whose client.op parent is missing.
// A span's self time is its duration minus the part of it that the union
// of its children's intervals covers.
func (r *recorder) selfTimes() (meanUS map[string]float64, count map[string]int, orphans int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	parents := make(map[opKey]int)
	children := make(map[opKey][][2]int64)
	for i, s := range r.spans {
		k := opKey{s.client, s.seq}
		switch s.name {
		case spanOp:
			parents[k] = i
		case spanExecuteBatch:
		default:
			children[k] = append(children[k], [2]int64{s.start, s.end})
		}
	}
	sum := make(map[string]float64)
	count = make(map[string]int)
	for _, s := range r.spans {
		d := s.end - s.start
		if s.name == spanOp {
			d -= covered(s.start, s.end, children[opKey{s.client, s.seq}])
		} else if s.name != spanExecuteBatch {
			if _, ok := parents[opKey{s.client, s.seq}]; !ok {
				orphans++
			}
		}
		sum[s.name] += float64(d) / 1e3
		count[s.name]++
	}
	meanUS = make(map[string]float64)
	for name, n := range count {
		meanUS[name] = sum[name] / float64(n)
	}
	return meanUS, count, orphans
}

// covered is the length of [lo,hi) covered by the union of the intervals.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curS, curE int64
	first := true
	for _, iv := range ivs {
		s, e := max(iv[0], lo), min(iv[1], hi)
		if e <= s {
			continue
		}
		if first || s > curE {
			if !first {
				total += curE - curS
			}
			curS, curE, first = s, e, false
		} else if e > curE {
			curE = e
		}
	}
	if !first {
		total += curE - curS
	}
	return total
}

// layerCounters accumulate per-call work at the wrapped boundaries. They
// are read at the start and end of the measured window.
type layerCounters struct {
	verifyCalls, verifyNS atomic.Int64
	execTxs, execNS       atomic.Int64
	readCalls, readNS     atomic.Int64
	sends, sendNS         atomic.Int64
	sendBytes             [numMsgClasses]atomic.Int64
}

type msgClass int

const (
	classConsensus msgClass = iota
	classRequest
	classReply
	classPersist
	classOther
	numMsgClasses
)

var msgClassNames = [numMsgClasses]string{"consensus", "request", "reply", "persist", "other"}

func classify(typ uint16) msgClass {
	switch {
	case typ >= consensus.MsgPropose && typ < consensus.MsgPropose+20:
		return classConsensus
	case typ == smr.MsgRequest || typ == smr.MsgViewQuery:
		return classRequest
	case typ == smr.MsgReply || typ == smr.MsgViewInfo:
		return classReply
	case typ == core.MsgPersist:
		return classPersist
	default:
		return classOther
	}
}

// tracedApp wraps one replica's coin service: it times the calls the node
// makes and forwards every capability the service has (unordered reads,
// parallel execution, the exec.Application conflict interface), so the
// node takes exactly the code paths it takes with the bare service.
type tracedApp struct {
	svc     *coin.Service
	replica atomic.Int32
	rec     *recorder
	c       *layerCounters
	// queries counts reads that reached this replica as ordered requests:
	// unordered reads the client fell back to total order for.
	queries atomic.Int64
}

var (
	_ core.Application          = (*tracedApp)(nil)
	_ core.UnorderedApplication = (*tracedApp)(nil)
	_ core.ParallelApplication  = (*tracedApp)(nil)
	_ exec.Application          = (*tracedApp)(nil)
)

func (a *tracedApp) ExecuteBatch(bc smr.BatchContext, reqs []smr.Request) [][]byte {
	start := a.rec.now()
	out := a.svc.ExecuteBatch(bc, reqs)
	end := a.rec.now()
	var queries int64
	for i := range reqs {
		if coin.IsQuery(reqs[i].Op) {
			queries++
		}
	}
	a.c.execTxs.Add(int64(len(reqs)))
	a.c.execNS.Add(end - start)
	a.queries.Add(queries)
	a.rec.add(span{name: spanExecuteBatch, replica: a.replica.Load(), seq: uint64(bc.BlockNumber), start: start, end: end})
	return out
}

func (a *tracedApp) VerifyOp(req *smr.Request) bool {
	start := a.rec.now()
	ok := a.svc.VerifyOp(req)
	end := a.rec.now()
	a.c.verifyCalls.Add(1)
	a.c.verifyNS.Add(end - start)
	a.rec.add(span{name: spanVerifyOp, replica: a.replica.Load(), client: req.ClientID, seq: req.Seq, start: start, end: end})
	return ok
}

func (a *tracedApp) ExecuteUnordered(req smr.Request) []byte {
	start := a.rec.now()
	out := a.svc.ExecuteUnordered(req)
	end := a.rec.now()
	a.c.readCalls.Add(1)
	a.c.readNS.Add(end - start)
	a.rec.add(span{name: spanRead, replica: a.replica.Load(), client: req.ClientID, seq: req.Seq, start: start, end: end})
	return out
}

func (a *tracedApp) Snapshot() []byte                         { return a.svc.Snapshot() }
func (a *tracedApp) Restore(snapshot []byte) error            { return a.svc.Restore(snapshot) }
func (a *tracedApp) SetExecWorkers(workers int)               { a.svc.SetExecWorkers(workers) }
func (a *tracedApp) RequestKeys(req *smr.Request) exec.KeySet { return a.svc.RequestKeys(req) }
func (a *tracedApp) ExecuteOne(bc smr.BatchContext, req *smr.Request) []byte {
	return a.svc.ExecuteOne(bc, req)
}

// tracedEndpoint counts and times every Send by message class. Receive is
// the wrapped endpoint's own channel, untouched.
type tracedEndpoint struct {
	transport.Endpoint
	c *layerCounters
}

func (e *tracedEndpoint) Send(to int32, typ uint16, payload []byte) error {
	start := time.Now()
	err := e.Endpoint.Send(to, typ, payload)
	e.c.sendNS.Add(int64(time.Since(start)))
	e.c.sends.Add(1)
	e.c.sendBytes[classify(typ)].Add(int64(len(payload)))
	return err
}

// serviceOf unwraps a replica's application to its coin service.
func serviceOf(app core.Application) *coin.Service {
	switch a := app.(type) {
	case *coin.Service:
		return a
	case *tracedApp:
		return a.svc
	}
	return nil
}
