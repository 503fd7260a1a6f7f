package proto

import (
	"math/rand"
	"runtime/debug"
	"testing"
	"unsafe"
)

// classCounts straddle every class boundary that matters: the smallest
// class, its first overflow, a middle class and its overflow, the largest
// class, and the first unpooled size.
var classCounts = []int{1, 8, 9, 64, 65, 256, 257}

// wantClass is the capacity EntryBuf must hand out for n entries.
func wantClass(n int) int {
	for _, k := range []int{8, 16, 32, 64, 128, 256} {
		if n <= k {
			return k
		}
	}
	return n
}

// TestEntryLayouts pins the packed entry size: the field order, not the
// wire format, decides it.
func TestEntryLayouts(t *testing.T) {
	if s := unsafe.Sizeof(Entry{}); s != 32 {
		t.Fatalf("sizeof(Entry) = %d, want 32", s)
	}
}

// TestEntryBufClasses pins the size-class choice: the smallest class that
// holds the request, an exact-size slice above the largest class.
func TestEntryBufClasses(t *testing.T) {
	if EntryBuf(0) != nil {
		t.Fatal("EntryBuf(0) must be nil")
	}
	for _, n := range classCounts {
		b := EntryBuf(n)
		if len(b) != 0 || cap(b) != wantClass(n) {
			t.Fatalf("EntryBuf(%d): len %d cap %d, want len 0 cap %d", n, len(b), cap(b), wantClass(n))
		}
		putEntryBuf(b)
	}
}

// TestEntryBufRoundTripsAllocFree pins both pooled entry paths at zero
// steady-state allocations for every pooled class: composing a Ping into
// an EntryBuf and recycling it, and decoding a Pong with DecodePooled and
// releasing it. The decoded buffer must be the smallest class that holds
// the wire count. Above the largest class the buffer is a plain slice:
// one allocation per message, never pooled.
func TestEntryBufRoundTripsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race; pooled paths cannot be alloc-free")
	}
	// A collection mid-count empties the pools' victim caches (see
	// TestProtocolSteadyStateAllocs in internal/core).
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rng := rand.New(rand.NewSource(13))
	for _, n := range classCounts {
		src := sampleEntries(rng, n)
		wire := Encode(&Pong{From: sampleRef(rng), Seq: 1, Entries: src})
		want := 0.0
		if n > maxPooledEntries {
			want = 1
		}

		compose := testing.AllocsPerRun(50, func() {
			p := AcquirePing()
			p.Entries = append(EntryBuf(len(src)), src...)
			if cap(p.Entries) != wantClass(n) {
				t.Fatalf("n=%d: composed cap %d, want %d", n, cap(p.Entries), wantClass(n))
			}
			p.Recycle()
		})
		if compose != want {
			t.Fatalf("n=%d: compose→Recycle allocated %.1f times, want %.0f", n, compose, want)
		}

		decode := testing.AllocsPerRun(50, func() {
			m, err := DecodePooled(wire)
			if err != nil {
				t.Fatal(err)
			}
			es := m.(*Pong).Entries
			if len(es) != n || cap(es) != wantClass(n) {
				t.Fatalf("n=%d: decoded len %d cap %d, want cap %d", n, len(es), cap(es), wantClass(n))
			}
			ReleaseDecoded(m)
		})
		if decode != want {
			t.Fatalf("n=%d: DecodePooled→ReleaseDecoded allocated %.1f times, want %.0f", n, decode, want)
		}
	}
}

// TestRecycleDetachesEntries checks that a recycled Ping or Pong keeps no
// entry buffer: idle pooled messages hold no entry memory, and a fresh
// Acquire starts empty.
func TestRecycleDetachesEntries(t *testing.T) {
	p := AcquirePing()
	p.From, p.Seq, p.Entries = NodeRef{Addr: 1}, 3, append(EntryBuf(2), Entry{}, Entry{})
	p.Recycle()
	if p.Entries != nil || p.Seq != 0 || !p.From.IsZero() {
		t.Fatalf("recycled Ping not cleared: %+v", p)
	}
	q := AcquirePong()
	q.Entries = EntryBuf(300)
	q.Recycle()
	if q.Entries != nil {
		t.Fatal("recycled Pong kept its entry buffer")
	}
}
