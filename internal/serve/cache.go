package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"adarnet/internal/core"
	"adarnet/internal/grid"
	"adarnet/internal/patch"
	"adarnet/internal/solver"
	"adarnet/internal/tensor"
)

// memo is the serving stack's one request-deduplication table (DESIGN.md
// §12): a sharded map from a content key to an open flight (a request being
// computed right now) or a resident entry (a finished one). An identical
// request that arrives while the first is in flight waits for it as a
// follower; one that arrives later is a hit. Either way it costs a hash, a
// compare and a deep copy instead of an LR solve and a forward pass.
//
// Two key spaces share the table. A case key covers everything solver.Solve
// reads from a built case, so Predict skips the solve and the forward pass;
// a flow key covers the solved field, which is all inference reads, so
// PredictFlow skips the forward pass. Flights are always on. The byte budget
// governs retention only: a budget of zero keeps flights and stores nothing
// (an engine built without WithCache holds such an instance).
//
// Correctness rests on three properties:
//
//   - Exactness: a key is a hash, and every hit or join re-checks full
//     bitwise equality against the stored identity, so a collision gates a
//     compare, never a wrong answer. Solve and inference are deterministic
//     functions of the identity, so equal identities give bit-equal results
//     on both precision paths.
//   - Isolation: flights and entries own deep copies of identity and result,
//     and every hit and every follower receives a fresh deep copy. Pooled
//     tensors are never aliased in, and a caller mutating its result cannot
//     poison later answers.
//   - Bounded memory: the budget is split evenly across shards and each
//     shard evicts from its own LRU tail under its own lock, so resident
//     bytes never exceed the budget.
//
// A diverged LR solve (solver.ErrDiverged) is retained as a negative entry
// for negTTL: re-solving it burns thousands of iterations to rediscover the
// same NaN, while the TTL keeps a transient misconfiguration from being
// remembered forever.
type memo struct {
	perShard int64         // byte budget per shard; 0 retains nothing
	negTTL   time.Duration // negative-entry lifetime; <= 0 disables negative caching
	now      func() time.Time
	closed   atomic.Bool // set by purge: a closed engine's table accepts no entries

	shards [memoShards]memoShard

	// These atomics are the single source of truth: EngineStats and the
	// /metrics exposition both read them, so the two views cannot disagree.
	hits    [numKeySpaces]atomic.Uint64 // positive hits served, by key space
	misses  atomic.Uint64               // lookups that found no live entry (leaders and followers)
	negHits atomic.Uint64               // negative (cached-error) hits served
	evicted atomic.Uint64               // entries evicted at the byte budget
	bytes   atomic.Int64                // resident bytes across all shards
	entries atomic.Int64                // resident entry count across all shards
}

// memoShards is a power of two so the shard index is a mask of the key.
const memoShards = 16

// entryOverhead approximates the fixed per-entry cost (headers, list links,
// map slot) charged against the byte budget on top of the payload slices.
const entryOverhead = 256

type memoShard struct {
	mu      sync.Mutex
	entries map[uint64]*entry
	flights map[uint64]*flight
	head    *entry // most recently used
	tail    *entry // next eviction candidate
	bytes   int64
}

// keySpace says what an identity covers, and so what a hit lets a request
// skip.
type keySpace uint8

const (
	flowSpace    keySpace = iota // the solved field: everything inference reads
	caseSpace                    // the built case: everything solver.Solve reads
	numKeySpaces = 2
)

func (s keySpace) String() string {
	if s == caseSpace {
		return "case"
	}
	return "flow"
}

// ident is the content a key stands for. flowIdent and caseIdent return views
// aliasing the caller's flow, which is all a lookup needs; clone makes the
// copy a flight or an entry keeps (the LR solve then mutates the flow in
// place).
type ident struct {
	space  keySpace
	h, w   int
	meta   [9]uint64 // case space: bits of Dx, Dy, UIn, Nu, NutIn and the four BCs
	mask   []bool    // case space: the immersed body
	fields [4][]float64
}

func flowIdent(f *grid.Flow) ident {
	return ident{
		space: flowSpace, h: f.H, w: f.W,
		fields: [4][]float64{f.U.Data, f.V.Data, f.P.Data, f.Nut.Data},
	}
}

// caseIdent covers every input of solver.Solve: the wall distance it also
// reads is a function of the shape, cell sizes, BCs and mask hashed here.
func caseIdent(f *grid.Flow) ident {
	id := flowIdent(f)
	id.space = caseSpace
	id.meta = [9]uint64{
		math.Float64bits(f.Dx), math.Float64bits(f.Dy),
		math.Float64bits(f.UIn), math.Float64bits(f.Nu), math.Float64bits(f.NutIn),
		uint64(f.BC.Left), uint64(f.BC.Right), uint64(f.BC.Bottom), uint64(f.BC.Top),
	}
	id.mask = f.Mask
	return id
}

// FNV-1a parameters.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvMix(h, v uint64) uint64 {
	h ^= v
	h *= fnvPrime
	return h
}

// hash is FNV-1a over the identity from seed (see memoSeed). The key space,
// the grid shape and the mask length go in ahead of the payload, so
// identities that differ only in how the same bytes are laid out never share
// a key.
func (id *ident) hash(seed uint64) uint64 {
	h := fnvMix(fnvMix(fnvMix(seed, uint64(id.space)), uint64(id.h)), uint64(id.w))
	for _, v := range id.meta {
		h = fnvMix(h, v)
	}
	h = fnvMix(h, uint64(len(id.mask)))
	for _, solid := range id.mask {
		v := uint64(0)
		if solid {
			v = 1
		}
		h = fnvMix(h, v)
	}
	for _, ch := range id.fields {
		for _, v := range ch {
			h = fnvMix(h, math.Float64bits(v))
		}
	}
	return h
}

// equal reports bitwise equality of two identities.
func (id *ident) equal(o *ident) bool {
	if id.space != o.space || id.h != o.h || id.w != o.w || id.meta != o.meta || !slices.Equal(id.mask, o.mask) {
		return false
	}
	for c := range id.fields {
		a, b := id.fields[c], o.fields[c]
		if len(a) != len(b) {
			return false
		}
		for i, v := range a {
			if math.Float64bits(v) != math.Float64bits(b[i]) {
				return false
			}
		}
	}
	return true
}

func (id *ident) clone() ident {
	c := *id
	c.mask = slices.Clone(id.mask)
	for i, f := range id.fields {
		c.fields[i] = slices.Clone(f)
	}
	return c
}

func (id *ident) byteSize() int64 {
	n := len(id.mask)
	for _, f := range id.fields {
		n += len(f) * 8
	}
	return int64(n)
}

// payload is an immutable private copy of an inference result: what an entry
// retains and what hits and followers copy from.
type payload struct {
	levels     *patch.Map
	fieldShape []int
	fieldData  []float64
	composite  int
}

func newPayload(inf *core.Inference) *payload {
	return &payload{
		levels:     inf.Levels.Clone(),
		fieldShape: inf.Field.Shape(),
		fieldData:  slices.Clone(inf.Field.Data()),
		composite:  inf.CompositeCells,
	}
}

func (p *payload) inference() *core.Inference {
	return &core.Inference{
		Levels:         p.levels.Clone(),
		Field:          tensor.FromSlice(slices.Clone(p.fieldData), p.fieldShape...),
		CompositeCells: p.composite,
	}
}

// entry is one retained answer: a result, or a divergence (negErr non-nil)
// with its expiry. Immutable after insert except for the LRU links, which
// mutate under the shard lock, so a reader that took res under the lock may
// copy from it after releasing it even if the entry is evicted meanwhile.
type entry struct {
	key uint64
	id  ident
	res *payload

	negErr    error
	negExpiry time.Time

	bytes      int64
	prev, next *entry
}

// flight is one request being computed. The leader runs it; followers wait
// on done and then read res and err.
type flight struct {
	id      ident
	done    chan struct{}
	waiters int // followers that joined; under the shard lock
	res     *payload
	err     error
}

// outcome says how do answered.
type outcome int

const (
	led      outcome = iota // ran the computation itself
	followed                // waited on another request's flight
	hit                     // served from a resident entry (positive or negative)
)

// errLeaderPanicked is what followers receive when a flight's computation
// panicked; the panic itself propagates on the leader's goroutine.
var errLeaderPanicked = fmt.Errorf("serve: flight leader panicked: %w", ErrInternal)

func newMemo(budget int64, negTTL time.Duration) *memo {
	per := budget / memoShards
	if budget > 0 && per < 1 {
		per = 1
	}
	return &memo{perShard: per, negTTL: negTTL, now: time.Now}
}

// retains reports whether the table stores finished answers (a byte budget
// was given) or only coalesces concurrent ones.
func (m *memo) retains() bool { return m.perShard > 0 }

// do answers the request identified by id (hashing to key): from a resident
// entry, by waiting on an open flight for an equal identity, or by opening a
// flight and running lead. A follower waits under its own ctx; its
// cancellation never reaches the leader. A leader that failed with a context
// error died of its own cancellation, so each live follower tries again, and
// the first becomes the new leader.
func (m *memo) do(ctx context.Context, key uint64, id *ident, lead func() (*core.Inference, error)) (*core.Inference, error, outcome) {
	sh := &m.shards[key&(memoShards-1)]
	counted := false
	for {
		sh.mu.Lock()
		if e := sh.entries[key]; e != nil && e.id.equal(id) {
			switch {
			case e.negErr == nil:
				sh.touchLocked(e)
				sh.mu.Unlock()
				m.hits[id.space].Add(1)
				return e.res.inference(), nil, hit
			case m.now().After(e.negExpiry):
				sh.removeLocked(m, e)
			default:
				sh.touchLocked(e)
				sh.mu.Unlock()
				m.negHits.Add(1)
				return nil, e.negErr, hit
			}
		}
		if m.retains() && !counted {
			counted = true
			m.misses.Add(1)
		}
		f := sh.flights[key]
		if f == nil {
			f = &flight{id: id.clone(), done: make(chan struct{})}
			if sh.flights == nil {
				sh.flights = make(map[uint64]*flight)
			}
			sh.flights[key] = f
			sh.mu.Unlock()
			inf, err := m.lead(sh, key, f, lead)
			return inf, err, led
		}
		if !f.id.equal(id) {
			// Hash collision with a different request in flight: compute
			// alone, keeping the flight map single-valued per key.
			sh.mu.Unlock()
			inf, err := lead()
			return inf, err, led
		}
		f.waiters++
		sh.mu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, ctx.Err(), followed
		}
		if f.err == nil {
			return f.res.inference(), nil, followed
		}
		if !isContextErr(f.err) || ctx.Err() != nil {
			return nil, f.err, followed
		}
	}
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// lead runs fn as the leader of f and lands the flight: the answer is
// retained if the table retains, the flight leaves the map in the same
// critical section (so an equal request finds one or the other), and
// followers are released. Deferred, so a panicking fn cannot strand them.
func (m *memo) lead(sh *memoShard, key uint64, f *flight, fn func() (*core.Inference, error)) (inf *core.Inference, err error) {
	err = errLeaderPanicked // stands unless fn returns
	defer func() {
		var e *entry
		switch {
		case !m.retains():
		case err == nil:
			f.res = newPayload(inf)
			e = &entry{key: key, id: f.id, res: f.res}
			e.bytes = int64(len(f.res.fieldData))*8 + int64(len(f.res.levels.Level))*8
		case errors.Is(err, solver.ErrDiverged) && m.negTTL > 0:
			e = &entry{key: key, id: f.id, negErr: err, negExpiry: m.now().Add(m.negTTL)}
		}
		sh.mu.Lock()
		if e != nil {
			e.bytes += f.id.byteSize() + entryOverhead
			m.insertLocked(sh, e)
		}
		delete(sh.flights, key)
		waiters := f.waiters
		sh.mu.Unlock()
		if err == nil && waiters > 0 && f.res == nil {
			// inf is still ours: the caller gets it only after we return.
			f.res = newPayload(inf)
		}
		f.err = err
		close(f.done)
	}()
	return fn()
}

// insertLocked links e in as most recently used and evicts from the tail
// down to the shard budget. An entry already under the key — a stale
// negative, or a different identity whose hash collides — is replaced.
func (m *memo) insertLocked(sh *memoShard, e *entry) {
	if m.closed.Load() || e.bytes > m.perShard {
		// Larger than a whole shard's budget: it would evict everything and
		// then itself on the next insert. Not retainable.
		return
	}
	if old := sh.entries[e.key]; old != nil {
		sh.removeLocked(m, old)
	}
	if sh.entries == nil {
		sh.entries = make(map[uint64]*entry)
	}
	sh.entries[e.key] = e
	sh.pushFrontLocked(e)
	sh.bytes += e.bytes
	m.bytes.Add(e.bytes)
	m.entries.Add(1)
	for sh.bytes > m.perShard && sh.tail != e {
		sh.removeLocked(m, sh.tail)
		m.evicted.Add(1)
	}
}

// purge drops every entry and refuses new ones — invalidation on engine
// close, so a closed engine's results cannot outlive it. Open flights land
// normally; their answers are just not retained.
func (m *memo) purge() {
	m.closed.Store(true)
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for sh.tail != nil {
			sh.removeLocked(m, sh.tail)
		}
		sh.mu.Unlock()
	}
}

func (sh *memoShard) pushFrontLocked(e *entry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	} else {
		sh.tail = e
	}
	sh.head = e
}

func (sh *memoShard) unlinkLocked(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (sh *memoShard) touchLocked(e *entry) {
	if sh.head == e {
		return
	}
	sh.unlinkLocked(e)
	sh.pushFrontLocked(e)
}

// removeLocked unlinks e from the LRU list and the map and releases its byte
// accounting. Caller holds the shard lock.
func (sh *memoShard) removeLocked(m *memo, e *entry) {
	sh.unlinkLocked(e)
	delete(sh.entries, e.key)
	sh.bytes -= e.bytes
	m.bytes.Add(-e.bytes)
	m.entries.Add(-1)
}
