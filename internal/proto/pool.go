package proto

import "sync"

// Recyclable is implemented by message types that can return to a pool
// once the delivery layer is finished with them. The keep-alive traffic
// (Ping/Pong with piggybacked entries, child reports) dominates a
// steady-state overlay's message volume; pooling those three types makes
// the per-message hot path allocation-free in the simulator, where
// payloads travel by reference and the network knows exactly when a
// datagram's life ends.
//
// Contract: a recyclable message is sent to exactly one destination and
// must not be retained (nor any slice it carries) by a receiving handler
// after the handler returns. The core protocol obeys this: entry slices
// are consumed into routing tables by value during handling.
type Recyclable interface{ Recycle() }

var (
	pingPool        = sync.Pool{New: func() interface{} { return new(Ping) }}
	pongPool        = sync.Pool{New: func() interface{} { return new(Pong) }}
	childReportPool = sync.Pool{New: func() interface{} { return new(ChildReport) }}
	helloPool       = sync.Pool{New: func() interface{} { return new(Hello) }}
	busLinkReqPool  = sync.Pool{New: func() interface{} { return new(BusLinkReq) }}
	busLinkAckPool  = sync.Pool{New: func() interface{} { return new(BusLinkAck) }}
	ringProbePool   = sync.Pool{New: func() interface{} { return new(RingProbe) }}
	ringProbeAckPl  = sync.Pool{New: func() interface{} { return new(RingProbeAck) }}
	mergeIntroPool  = sync.Pool{New: func() interface{} { return new(MergeIntro) }}
	dhtStoreAckPool = sync.Pool{New: func() interface{} { return new(DHTStoreAck) }}
	dhtFetchRepPool = sync.Pool{New: func() interface{} { return new(DHTFetchReply) }}
	dhtReplAckPool  = sync.Pool{New: func() interface{} { return new(DHTReplicateAck) }}
)

// Entry buffers are pooled apart from the Ping/Pong that carries them, in
// size classes of 8, 16, 32, 64, 128 and 256 entries. A pooled message
// whose buffer stayed attached would keep the largest capacity it ever
// carried; with classes, an in-flight keep-alive holds at most twice its
// entry count, and an idle pooled message holds no entries at all. Each
// class pools a *[K]Entry, so a Put boxes a plain pointer and does not
// allocate. Buffers above maxPooledEntries are left to the collector.
var (
	entries8   = sync.Pool{New: func() interface{} { return new([8]Entry) }}
	entries16  = sync.Pool{New: func() interface{} { return new([16]Entry) }}
	entries32  = sync.Pool{New: func() interface{} { return new([32]Entry) }}
	entries64  = sync.Pool{New: func() interface{} { return new([64]Entry) }}
	entries128 = sync.Pool{New: func() interface{} { return new([128]Entry) }}
	entries256 = sync.Pool{New: func() interface{} { return new([256]Entry) }}
)

// maxPooledEntries is the largest entry-buffer class.
const maxPooledEntries = 256

// EntryBuf returns an empty entry buffer with room for n entries: the
// smallest class that holds n when n ≤ maxPooledEntries, a fresh slice of
// capacity n above that, and nil when n ≤ 0. A buffer handed to a pooled
// Ping or Pong returns to its class when the message is recycled.
func EntryBuf(n int) []Entry {
	switch {
	case n <= 0:
		return nil
	case n <= 8:
		return entries8.Get().(*[8]Entry)[:0]
	case n <= 16:
		return entries16.Get().(*[16]Entry)[:0]
	case n <= 32:
		return entries32.Get().(*[32]Entry)[:0]
	case n <= 64:
		return entries64.Get().(*[64]Entry)[:0]
	case n <= 128:
		return entries128.Get().(*[128]Entry)[:0]
	case n <= maxPooledEntries:
		return entries256.Get().(*[256]Entry)[:0]
	}
	return make([]Entry, 0, n)
}

// putEntryBuf returns a buffer to the class its capacity names; any other
// capacity (nil included) is left to the collector.
func putEntryBuf(es []Entry) {
	switch cap(es) {
	case 8:
		entries8.Put((*[8]Entry)(es[:8]))
	case 16:
		entries16.Put((*[16]Entry)(es[:16]))
	case 32:
		entries32.Put((*[32]Entry)(es[:32]))
	case 64:
		entries64.Put((*[64]Entry)(es[:64]))
	case 128:
		entries128.Put((*[128]Entry)(es[:128]))
	case maxPooledEntries:
		entries256.Put((*[256]Entry)(es[:256]))
	}
}

// AcquirePing returns a pooled Ping with no entry buffer; the sender
// attaches one from EntryBuf sized to its update.
func AcquirePing() *Ping { return pingPool.Get().(*Ping) }

// Recycle implements Recyclable. The entry buffer returns to its class.
func (p *Ping) Recycle() {
	putEntryBuf(p.Entries)
	*p = Ping{}
	pingPool.Put(p)
}

// AcquirePong returns a pooled Pong (see AcquirePing).
func AcquirePong() *Pong { return pongPool.Get().(*Pong) }

// Recycle implements Recyclable (see Ping.Recycle).
func (p *Pong) Recycle() {
	putEntryBuf(p.Entries)
	*p = Pong{}
	pongPool.Put(p)
}

// AcquireChildReport returns a pooled ChildReport.
func AcquireChildReport() *ChildReport {
	c := childReportPool.Get().(*ChildReport)
	*c = ChildReport{}
	return c
}

// Recycle implements Recyclable.
func (c *ChildReport) Recycle() { childReportPool.Put(c) }

// AcquireHello returns a pooled Hello.
func AcquireHello() *Hello {
	h := helloPool.Get().(*Hello)
	*h = Hello{}
	return h
}

// Recycle implements Recyclable.
func (h *Hello) Recycle() { helloPool.Put(h) }

// AcquireBusLinkReq returns a pooled BusLinkReq.
func AcquireBusLinkReq() *BusLinkReq {
	r := busLinkReqPool.Get().(*BusLinkReq)
	*r = BusLinkReq{}
	return r
}

// Recycle implements Recyclable.
func (r *BusLinkReq) Recycle() { busLinkReqPool.Put(r) }

// AcquireBusLinkAck returns a pooled BusLinkAck.
func AcquireBusLinkAck() *BusLinkAck {
	a := busLinkAckPool.Get().(*BusLinkAck)
	*a = BusLinkAck{}
	return a
}

// Recycle implements Recyclable.
func (a *BusLinkAck) Recycle() { busLinkAckPool.Put(a) }

// AcquireRingProbe returns a pooled RingProbe. Probes are periodic
// repair traffic (one per occupied ring side per probe interval), so they
// pool like the keep-alives: sent to exactly one destination, consumed by
// value in the handler, never retained.
func AcquireRingProbe() *RingProbe {
	p := ringProbePool.Get().(*RingProbe)
	*p = RingProbe{}
	return p
}

// Recycle implements Recyclable.
func (p *RingProbe) Recycle() { ringProbePool.Put(p) }

// AcquireRingProbeAck returns a pooled RingProbeAck.
func AcquireRingProbeAck() *RingProbeAck {
	a := ringProbeAckPl.Get().(*RingProbeAck)
	*a = RingProbeAck{}
	return a
}

// Recycle implements Recyclable.
func (a *RingProbeAck) Recycle() { ringProbeAckPl.Put(a) }

// AcquireMergeIntro returns a pooled MergeIntro.
func AcquireMergeIntro() *MergeIntro {
	m := mergeIntroPool.Get().(*MergeIntro)
	*m = MergeIntro{}
	return m
}

// Recycle implements Recyclable.
func (m *MergeIntro) Recycle() { mergeIntroPool.Put(m) }

// valueSeedCap pre-sizes a pooled DHT message's value buffer; typical
// records are small key-value payloads, and keeping the capacity across
// pool cycles makes the steady-state reply path allocation-free.
//
// Only the DHT *response* types are pooled. The request types (DHTStore,
// DHTFetch, DHTReplicate) deliberately do not implement Recyclable: the
// service plane retries requests by re-sending the same message value, and
// the simulator recycles every Recyclable payload when its datagram ends —
// a pooled request would be recycled out from under its own retry closure.
// Responses are sent exactly once by the plane and never retained, so they
// pool safely.
const valueSeedCap = 256

func seedValue(v []byte) []byte {
	if cap(v) < valueSeedCap {
		return make([]byte, 0, valueSeedCap)
	}
	return v[:0]
}

// AcquireDHTStoreAck returns a pooled DHTStoreAck.
func AcquireDHTStoreAck() *DHTStoreAck {
	m := dhtStoreAckPool.Get().(*DHTStoreAck)
	*m = DHTStoreAck{}
	return m
}

// Recycle implements Recyclable.
func (m *DHTStoreAck) Recycle() { dhtStoreAckPool.Put(m) }

// AcquireDHTFetchReply returns a pooled DHTFetchReply. Value keeps its
// previous capacity with zero length, so reply composition appends without
// reallocating; receivers must copy, never retain, the slice.
func AcquireDHTFetchReply() *DHTFetchReply {
	m := dhtFetchRepPool.Get().(*DHTFetchReply)
	v := seedValue(m.Value)
	*m = DHTFetchReply{Value: v}
	return m
}

// Recycle implements Recyclable.
func (m *DHTFetchReply) Recycle() { dhtFetchRepPool.Put(m) }

// acquireMessage is DecodePooled's allocator: pooled types come from
// their pools (entry lists from their size class, other slices with
// recycled capacity for the decode to append into), everything else is a
// fresh value exactly as newMessage builds.
// The two switches must stay in lockstep — TestDecodePooledCoversTypes
// pins every wire type to a working pooled decode.
func acquireMessage(t MsgType) Message {
	switch t {
	case THello:
		return AcquireHello()
	case TPing:
		return AcquirePing()
	case TPong:
		return AcquirePong()
	case TChildReport:
		return AcquireChildReport()
	case TBusLinkReq:
		return AcquireBusLinkReq()
	case TBusLinkAck:
		return AcquireBusLinkAck()
	case TRingProbe:
		return AcquireRingProbe()
	case TRingProbeAck:
		return AcquireRingProbeAck()
	case TMergeIntro:
		return AcquireMergeIntro()
	case TDHTStoreAck:
		return AcquireDHTStoreAck()
	case TDHTFetchReply:
		return AcquireDHTFetchReply()
	case TDHTReplicateAck:
		return AcquireDHTReplicateAck()
	}
	return newMessage(t)
}

// AcquireDHTReplicateAck returns a pooled DHTReplicateAck.
func AcquireDHTReplicateAck() *DHTReplicateAck {
	m := dhtReplAckPool.Get().(*DHTReplicateAck)
	*m = DHTReplicateAck{}
	return m
}

// Recycle implements Recyclable.
func (m *DHTReplicateAck) Recycle() { dhtReplAckPool.Put(m) }
