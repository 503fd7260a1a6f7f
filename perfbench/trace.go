package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"treep/internal/core"
	"treep/internal/netsim"
	"treep/internal/proto"
	"treep/internal/simrt"
)

// numTypes bounds proto.MsgType values (a byte; the protocol uses < 32).
const numTypes = 32

// Span kinds. Op spans are in the workload's clock (virtual time for sim
// workloads); the others are wall time since the tracer started.
const (
	spanOp     uint8 = iota // one user operation, issue to callback
	spanStep                // one Cluster.RunUntil step
	spanHandle              // one Node.HandleMessage, carrying the message type
	spanDoWait              // one Transport.Do queue wait
)

var spanKindNames = [...]string{"op", "step", "handle", "do-wait"}

// span is one traced interval. parent indexes the tracer's step spans
// (-1: none).
type span struct {
	start, end int64
	parent     int32
	kind       uint8
	typ        uint8 // message type (handle) or operation kind (op)
	node       uint32
}

// nodeAcc is one node's accumulator. Each node's handler runs on one
// engine shard at a time, so the wrappers need no locking; accumulators
// are merged after the run.
type nodeAcc struct {
	setup   [numTypes]uint64 // messages handled before the window
	count   [numTypes]uint64
	ns      [numTypes]int64
	spans   []span
	capture bool               // this node keeps encoded samples for the proto ledger
	samples [numTypes][][]byte // encoded messages, a few per type
}

const samplesPerType = 4

// tracer records spans in memory and writes them out when the run ends.
type tracer struct {
	base time.Time
	// phase is set by the control plane between engine steps: handlers
	// count messages by type while setting up and time them in the window.
	phase int
	accs  []*nodeAcc
	step  int32
	steps []span

	mu      sync.Mutex // guards ops and doWaits
	ops     []span
	doWaits []span
}

// Tracer phases.
const (
	phaseSetup = iota
	phaseWindow
	phaseDone
)

func newTracer() *tracer { return &tracer{base: time.Now(), step: -1} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// wrapSim replaces the node's netsim handler with one that times every
// Node.HandleMessage call. The wrapper does exactly what simrt's handler
// does, so the traced run plays the same virtual timeline.
func (t *tracer) wrapSim(c *simrt.Cluster, n *core.Node) {
	addr := n.Addr()
	for uint64(len(t.accs)) <= addr {
		t.accs = append(t.accs, nil)
	}
	acc := &nodeAcc{capture: addr%97 == 1}
	t.accs[addr] = acc
	c.Net.SetHandler(netsim.Addr(addr), func(from netsim.Addr, payload interface{}, _ int) {
		msg, ok := payload.(proto.Message)
		if !ok {
			return
		}
		typ := msg.Type()
		if t.phase != phaseWindow {
			if t.phase == phaseSetup {
				acc.setup[typ]++
			}
			n.HandleMessage(uint64(from), msg)
			return
		}
		if acc.capture && len(acc.samples[typ]) < samplesPerType {
			acc.samples[typ] = append(acc.samples[typ], proto.Encode(msg))
		}
		s := t.now()
		n.HandleMessage(uint64(from), msg)
		e := t.now()
		acc.count[typ]++
		acc.ns[typ] += e - s
		acc.spans = append(acc.spans, span{start: s, end: e, parent: t.step, kind: spanHandle, typ: uint8(typ), node: uint32(addr)})
	})
}

func (t *tracer) stepBegin() {
	t.steps = append(t.steps, span{start: t.now(), parent: -1, kind: spanStep})
	t.step = int32(len(t.steps) - 1)
}

func (t *tracer) stepEnd() {
	t.steps[t.step].end = t.now()
	t.step = -1
}

// opSpan records one operation (nil-safe: untraced runs pass a nil tracer).
func (t *tracer) opSpan(k opKind, start, end time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ops = append(t.ops, span{start: int64(start), end: int64(end), parent: -1, kind: spanOp, typ: uint8(k)})
	t.mu.Unlock()
}

// doWait records the wait between a Transport.Do call and the start of its
// closure on the event loop.
func (t *tracer) doWait(start, end int64, node uint32) {
	t.mu.Lock()
	t.doWaits = append(t.doWaits, span{start: start, end: end, parent: -1, kind: spanDoWait, node: node})
	t.mu.Unlock()
}

// merged sums the per-node accumulators.
type merged struct {
	setup   [numTypes]uint64
	count   [numTypes]uint64
	ns      [numTypes]int64
	samples [numTypes][][]byte
}

func (t *tracer) merge() merged {
	var m merged
	for _, a := range t.accs {
		if a == nil {
			continue
		}
		for i := range a.count {
			m.setup[i] += a.setup[i]
			m.count[i] += a.count[i]
			m.ns[i] += a.ns[i]
			m.samples[i] = append(m.samples[i], a.samples[i]...)
		}
	}
	return m
}

// write stores every span, gzip-compressed, one CSV line each.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "kind,start_ns,end_ns,parent,node,type")
	emit := func(ss []span) {
		for _, s := range ss {
			var typ string
			switch s.kind {
			case spanOp:
				typ = kindNames[s.typ]
			case spanHandle:
				typ = proto.MsgType(s.typ).String()
			}
			fmt.Fprintf(bw, "%s,%d,%d,%d,%d,%s\n", spanKindNames[s.kind], s.start, s.end, s.parent, s.node, typ)
		}
	}
	emit(t.ops)
	emit(t.steps)
	emit(t.doWaits)
	for _, a := range t.accs {
		if a != nil {
			emit(a.spans)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
