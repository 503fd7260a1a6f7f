package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"treep/internal/scenario"
)

// opKind is one user-visible operation class.
type opKind uint8

const (
	opLookup opKind = iota
	opGet
	opPut
	opJoin  // churn: spawn a node and join it through a live member
	opLeave // churn: fail-stop a live node
	numKinds
)

var kindNames = [numKinds]string{"lookup", "get", "put", "join", "leave"}

// op is one generated operation. The random draws are fixed when the
// stream is generated; which live node they select is resolved when the
// op is issued, so the stream depends only on the seed.
type op struct {
	due    time.Duration // offset from the start of the measured window
	kind   opKind
	origin uint64 // uniform draw selecting the issuing node
	target uint64 // uniform draw selecting the lookup target node
	key    int    // key index for gets and puts
}

// rates is an open-loop operation mix, in operations per second of the
// workload's clock (virtual for sim workloads, wall for udp-loopback).
type rates struct {
	lookup, get, put float64
	join, leave      float64
}

// genOps draws the open-loop operation stream for a window of length w:
// independent Poisson arrivals per kind, merged in due-time order. Get
// and put keys are Zipf(theta) over nkeys when theta > 0, uniform
// otherwise.
func genOps(seed int64, r rates, w time.Duration, nkeys int, theta float64) []op {
	rng := rand.New(rand.NewSource(seed ^ 0x6f707374)) // "opst"
	var zipf *scenario.Zipf
	if theta > 0 {
		zipf = scenario.NewZipf(nkeys, theta)
	}
	per := [numKinds]float64{r.lookup, r.get, r.put, r.join, r.leave}
	var ops []op
	for k := opKind(0); k < numKinds; k++ {
		if per[k] <= 0 {
			continue
		}
		t := time.Duration(0)
		for {
			t += time.Duration(rng.ExpFloat64() / per[k] * float64(time.Second))
			if t >= w {
				break
			}
			o := op{due: t, kind: k, origin: rng.Uint64(), target: rng.Uint64()}
			if k == opGet || k == opPut {
				if zipf != nil {
					o.key = zipf.Rank(rng.Float64())
				} else {
					o.key = rng.Intn(nkeys)
				}
			}
			ops = append(ops, o)
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	return ops
}

// keyName is the raw DHT key for index i.
func keyName(i int) []byte { return []byte("bench-key-" + strconv.Itoa(i)) }

// valueFor encodes the key and its write sequence, so a read can prove the
// value was written for that key.
func valueFor(key, seq int) []byte {
	return []byte("v:" + strconv.Itoa(key) + ":" + strconv.Itoa(seq))
}

// ledger tracks the writes issued per key; it is the oracle for reads.
type ledger struct{ issued []int } // highest sequence issued per key

func newLedger(nkeys int) *ledger { return &ledger{issued: make([]int, nkeys)} }

// nextWrite returns the value of the key's next write.
func (l *ledger) nextWrite(key int) []byte {
	l.issued[key]++
	return valueFor(key, l.issued[key])
}

// check reports whether v was written for key: it must name the key and a
// sequence already issued for it.
func (l *ledger) check(key int, v []byte) error {
	parts := strings.Split(string(v), ":")
	if len(parts) != 3 || parts[0] != "v" {
		return fmt.Errorf("key %d: malformed value %q", key, v)
	}
	k, err1 := strconv.Atoi(parts[1])
	s, err2 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil || k != key || s < 1 || s > l.issued[key] {
		return fmt.Errorf("key %d: value %q was never written for it", key, v)
	}
	return nil
}

// recorder accumulates the outcome of every measured operation.
type recorder struct {
	lat      [numKinds][]float64 // latencies in ms of successful ops
	attempts [numKinds]int
	fails    [numKinds]int
	hops     []float64 // overlay hops of successful lookups
	wrong    []string  // wrong answers; any one fails the run
	late     []float64 // generator lateness in ms (issue time - due time)
}

func (r *recorder) ok(k opKind, lat time.Duration) {
	r.lat[k] = append(r.lat[k], float64(lat)/float64(time.Millisecond))
}

func (r *recorder) fail(k opKind) { r.fails[k]++ }

func (r *recorder) wrongAnswer(format string, args ...interface{}) {
	if len(r.wrong) < 10 {
		r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
	} else {
		r.wrong[9] = "(and more)"
	}
}

// absorb pools another repetition's outcomes into r.
func (r *recorder) absorb(o *recorder) {
	for k := range r.attempts {
		r.lat[k] = append(r.lat[k], o.lat[k]...)
		r.attempts[k] += o.attempts[k]
		r.fails[k] += o.fails[k]
	}
	r.hops = append(r.hops, o.hops...)
	r.late = append(r.late, o.late...)
	for _, w := range o.wrong {
		r.wrongAnswer("%s", w)
	}
}

// totals returns operations attempted and failed across the user kinds.
func (r *recorder) totals() (attempted, failed int) {
	for _, k := range []opKind{opLookup, opGet, opPut} {
		attempted += r.attempts[k]
		failed += r.fails[k]
	}
	return attempted, failed
}

// quantile returns the q-quantile of xs by nearest rank (xs is sorted in
// place). It returns NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// okPct is the share of attempts that succeeded, in percent.
func okPct(attempts, fails int) float64 {
	if attempts == 0 {
		return math.NaN()
	}
	return 100 * float64(attempts-fails) / float64(attempts)
}
