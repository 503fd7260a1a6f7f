// Package scenario drives a simrt.Cluster through scripted dynamic
// workloads and checks runtime invariants of the overlay mid-run.
//
// The paper's evaluation (§IV) is a one-way kill sweep: nodes are removed
// until a fraction of the initial population remains. Real overlays are
// judged under *dynamic* operation — interleaved joins and departures,
// mass arrivals, correlated regional failures, partitions that heal. A
// Scenario is a timeline of such phases played against a live cluster;
// between and during phases the engine samples invariant checkers
// (invariants.go) that double as test oracles for every stress and
// property test in the repository.
//
// Phases compose freely:
//
//	eng := scenario.NewEngine(cluster, scenario.Options{
//		Checkers:    scenario.AllCheckers(),
//		SampleEvery: 2 * time.Second,
//	})
//	res := eng.Play(
//		scenario.Settle{For: 8 * time.Second},
//		scenario.Churn{For: 30 * time.Second, JoinRate: 2, LeaveRate: 2},
//		scenario.Settle{For: 10 * time.Second},
//	)
//	if len(res.Final) > 0 { ... }
//
// The engine is the one interpreter of the phase language. The portable
// phases (see Portable) reach the overlay only through the Backend seam,
// so NewBackendEngine plays them against any overlay.Overlay — the Chord
// and flooding baselines of the comparative harness included.
package scenario

import (
	"fmt"
	"math/rand"
	"time"

	"treep/internal/idspace"
	"treep/internal/overlay"
	"treep/internal/simrt"
)

// maxDuration is "never" for next-event bookkeeping.
const maxDuration = time.Duration(1<<63 - 1)

// Backend is the seam the portable phases drive: the clock, membership
// changes and partitions of an overlay. overlay.Overlay satisfies it.
type Backend interface {
	Now() time.Duration
	Run(d time.Duration)
	AliveCount() int
	// Join spawns and bootstraps one node, reporting whether it could.
	Join() bool
	// Leave fail-stops one live node chosen by the backend's own stream,
	// reporting whether it did (never below two live nodes).
	Leave() bool
	KillZone(zone idspace.Region) int
	Partition(split idspace.ID)
	Heal()
}

// Portable reports whether a phase drives only the Backend seam, and so
// runs on any overlay. The others need a TreeP cluster: RevivalWave
// revives nodes with their stale protocol state, IslandsMerge splits by
// transport address and bridges through one node's Join, and the storage
// and skewed-read phases drive per-node DHT services.
func Portable(ph Phase) bool {
	switch ph.(type) {
	case Settle, Churn, FlashCrowd, ZoneFailure, PartitionHeal:
		return true
	}
	return false
}

// Phase is one segment of a scenario timeline. A phase advances the
// cluster's virtual clock as it runs; the engine samples invariants on the
// way through.
type Phase interface {
	// Name identifies the phase in samples and logs.
	Name() string
	// Run executes the phase against the engine's cluster.
	Run(e *Engine)
}

// Options configures an Engine.
type Options struct {
	// Checkers are the invariants sampled during the run and evaluated at
	// the end. Nil means AllCheckers is not implied — no checking.
	Checkers []Checker
	// SampleEvery is the virtual-time interval between mid-run invariant
	// samples. Zero disables sampling (Final is still evaluated by Play).
	SampleEvery time.Duration
	// FinalGrace and FinalChecks implement the persistence filter for the
	// final evaluation: mid-run violations are expected while the overlay
	// absorbs churn, persistent ones are not. When the last phase ends
	// with violations and FinalChecks > 0, the engine advances FinalGrace
	// of extra virtual time and re-checks, up to FinalChecks times,
	// reporting only what the overlay failed to repair. Zero FinalChecks
	// keeps the single strict boundary check (the experiment harness
	// relies on exact phase-boundary timing).
	FinalGrace  time.Duration
	FinalChecks int
	// Storage enables the DHT workload phases (StoreRecords,
	// StorageWorkload) and the durability checkers: it carries the
	// per-node services and the ledger of written records. Nodes the
	// scenario spawns are attached to it automatically.
	Storage *Storage
}

// Sample is one mid-run invariant evaluation.
type Sample struct {
	// At is the virtual time of the sample.
	At time.Duration
	// Phase is the name of the phase that was running.
	Phase string
	// Alive is the live population at the sample.
	Alive int
	// Violations holds whatever the checkers found. Mid-run violations are
	// expected while the overlay absorbs churn; persistent ones are not.
	Violations []Violation
}

// Result aggregates one scenario run.
type Result struct {
	// Samples are the mid-run invariant evaluations in time order.
	Samples []Sample
	// Final holds the violations found after the last phase completed.
	Final []Violation
	// Joins counts nodes spawned and bootstrapped into the overlay.
	Joins int
	// Leaves counts nodes fail-stopped by churn.
	Leaves int
	// ZoneKilled counts nodes fail-stopped by zone failures.
	ZoneKilled int
	// Revived counts nodes brought back by revival waves.
	Revived int
	// Events is the kernel's executed-event count when Play returned,
	// the denominator of the substrate's events/sec scaling numbers.
	Events uint64
}

// Engine plays phases against a cluster and samples invariants.
type Engine struct {
	// C is the TreeP cluster under test; nil on an engine built by
	// NewBackendEngine, which plays portable phases only.
	C *simrt.Cluster

	b          Backend
	opts       Options
	rng        *rand.Rand
	res        Result
	curPhase   string
	nextSample time.Duration
	// readers is the shared repeat-reader pool for skewed-read phases
	// (lazily built by the first such phase, reused by the rest).
	readers *readerPool
	// ctx is the shared invariant-checking context, reset per pass so all
	// checkers in one CheckNow share a single sorted alive-list and the
	// walk scratch buffers.
	ctx Ctx
}

// NewEngine binds an engine to a cluster. Scenario randomness (event
// gaps, which node leaves, which bootstrap a reviver uses) draws from a
// dedicated kernel stream, so runs are reproducible from the cluster seed.
func NewEngine(c *simrt.Cluster, opts Options) *Engine {
	rng := c.Stream(0x7363656e) // "scen"
	tp := &overlay.TreeP{C: c, Victims: rng}
	if opts.Storage != nil {
		// A joiner gets its DHT service immediately, so it participates
		// in replication (and can be handed ownership) from its first
		// tick.
		tp.OnJoin = opts.Storage.Attach
	}
	e := newEngine(tp, rng, opts)
	e.C = c
	return e
}

// NewBackendEngine binds an engine to any overlay for the portable
// phases, with no invariant checking. Event gaps draw from rng; leave
// victims from the backend's own stream.
func NewBackendEngine(b Backend, rng *rand.Rand) *Engine {
	return newEngine(b, rng, Options{})
}

func newEngine(b Backend, rng *rand.Rand, opts Options) *Engine {
	e := &Engine{b: b, opts: opts, rng: rng}
	if opts.SampleEvery > 0 {
		e.nextSample = b.Now() + opts.SampleEvery
	}
	return e
}

// Play runs the phases in order, evaluates the checkers one final time
// (with the configured persistence filter), and returns the accumulated
// result.
func (e *Engine) Play(phases ...Phase) *Result {
	for _, p := range phases {
		if e.C == nil && !Portable(p) {
			panic(fmt.Sprintf("scenario: phase %q needs a TreeP cluster", p.Name()))
		}
		e.curPhase = p.Name()
		p.Run(e)
	}
	final := e.CheckNow()
	grace := e.opts.FinalGrace
	if grace <= 0 {
		grace = 2 * time.Second
	}
	for retry := 0; len(final) > 0 && retry < e.opts.FinalChecks; retry++ {
		e.advance(grace)
		final = e.CheckNow()
	}
	e.res.Final = final
	if e.C != nil {
		e.res.Events = e.C.Events()
	}
	return &e.res
}

// Run is the one-shot convenience: build an engine, play the phases.
func Run(c *simrt.Cluster, opts Options, phases ...Phase) *Result {
	return NewEngine(c, opts).Play(phases...)
}

// CheckNow evaluates every configured checker against the current overlay
// state and returns the violations. All checkers in one pass share a
// cached sorted alive-list instead of each re-sorting the cluster.
func (e *Engine) CheckNow() []Violation {
	e.ctx.reset(e.C, e.opts.Storage)
	var out []Violation
	for _, ch := range e.opts.Checkers {
		out = append(out, ch.Check(&e.ctx)...)
	}
	return out
}

// advance moves virtual time forward by d, taking invariant samples on the
// configured cadence.
func (e *Engine) advance(d time.Duration) { e.advanceUntil(e.b.Now() + d) }

// advanceUntil moves virtual time to t (absolute), sampling on the way.
// After a wall-clock Interrupt the cluster clock freezes, so the loop
// checks the flag explicitly rather than spinning on a time that will
// never arrive.
func (e *Engine) advanceUntil(t time.Duration) {
	for e.b.Now() < t && !e.interrupted() {
		next := t
		if e.opts.SampleEvery > 0 && e.nextSample < next {
			next = e.nextSample
		}
		e.b.Run(next - e.b.Now())
		if e.opts.SampleEvery > 0 && e.b.Now() >= e.nextSample {
			e.takeSample()
			e.nextSample = e.b.Now() + e.opts.SampleEvery
		}
	}
}

// interrupted reports a wall-clock Interrupt of the engine's cluster.
func (e *Engine) interrupted() bool { return e.C != nil && e.C.Interrupted() }

func (e *Engine) takeSample() {
	e.res.Samples = append(e.res.Samples, Sample{
		At:         e.b.Now(),
		Phase:      e.curPhase,
		Alive:      e.b.AliveCount(),
		Violations: e.CheckNow(),
	})
}

// join spawns one node and bootstraps it through a live peer.
func (e *Engine) join() {
	if e.b.Join() {
		e.res.Joins++
	}
}

// leave fail-stops a random live node, never shrinking below two.
func (e *Engine) leave() {
	if e.b.Leave() {
		e.res.Leaves++
	}
}

// expDelay draws a Poisson inter-arrival gap for the given events/second
// rate; a non-positive rate means the event never fires.
func (e *Engine) expDelay(rate float64) time.Duration {
	if rate <= 0 {
		return maxDuration
	}
	return time.Duration(e.rng.ExpFloat64() / rate * float64(time.Second))
}
