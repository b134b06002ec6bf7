package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"adarnet/internal/core"
	"adarnet/internal/grid"
	"adarnet/internal/obs"
)

// ringVnodes is how many ring points each replica slot owns. 64 points per
// slot keeps the keyspace share of each slot within a few percent of fair
// for small fleets, at a ring of a few hundred entries — binary-searched per
// request, cheap next to a forward pass.
const ringVnodes = 64

// hashRing is an immutable consistent-hash ring over replica slots. Points
// are keyed by slot index, not by engine identity, so replacing a slot's
// engine leaves the ring — and therefore every key's home — untouched: the
// other replicas' warm caches survive a neighbor's replacement.
type hashRing struct {
	hashes []uint64 // sorted ring positions
	slots  []int    // hashes[i] belongs to slots[i]
	n      int      // distinct slots
}

// splitmix64 is the vnode position hash: cheap, well-mixed, and stable
// across processes (no map iteration, no runtime seeds).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func newHashRing(n, vnodes int) *hashRing {
	r := &hashRing{
		hashes: make([]uint64, 0, n*vnodes),
		slots:  make([]int, 0, n*vnodes),
		n:      n,
	}
	type point struct {
		hash uint64
		slot int
	}
	points := make([]point, 0, n*vnodes)
	for s := 0; s < n; s++ {
		for v := 0; v < vnodes; v++ {
			points = append(points, point{splitmix64(uint64(s)<<32 | uint64(v)), s})
		}
	}
	sort.Slice(points, func(i, j int) bool { return points[i].hash < points[j].hash })
	for _, p := range points {
		r.hashes = append(r.hashes, p.hash)
		r.slots = append(r.slots, p.slot)
	}
	return r
}

// order walks the ring clockwise from key's successor and returns every
// slot in first-encounter order: the home replica first, then the
// fallback/retry/hedge preference sequence. Deterministic for a given key.
func (r *hashRing) order(key uint64) []int {
	out := make([]int, 0, r.n)
	seen := make([]bool, r.n)
	start := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= key })
	for i := 0; i < len(r.hashes) && len(out) < r.n; i++ {
		s := r.slots[(start+i)%len(r.hashes)]
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// routeOrder is the router's preference sequence for a key: the ring order
// restricted to ready slots, with a load-aware twist — when the home
// replica's queue is at least loadThreshold deep, the first ready replica
// with headroom is promoted to the front. If no slot is ready (every replica
// mid-replacement at once), the full ring order is returned so the request
// still reaches an engine; draining engines serve until their queue empties.
func (c *Cluster) routeOrder(key uint64) []int {
	ringOrder := c.ring.order(key)
	ready := make([]int, 0, len(ringOrder))
	for _, idx := range ringOrder {
		if c.slots[idx].ready() {
			ready = append(ready, idx)
		}
	}
	if len(ready) == 0 {
		return ringOrder
	}
	if len(ready) > 1 {
		if home := c.slots[ready[0]].engine(); home != nil && home.queueLen() >= c.loadThreshold {
			for i, idx := range ready[1:] {
				if e := c.slots[idx].engine(); e != nil && e.queueLen() < c.loadThreshold {
					c.fallbacks.Add(1)
					copy(ready[1:i+2], ready[:i+1])
					ready[0] = idx
					break
				}
			}
		}
	}
	return ready
}

// homeEngine is the engine that currently owns key — the replica whose
// table answers a Predict for it. routeOrder never returns an empty order
// and a slot always holds an engine.
func (c *Cluster) homeEngine(key uint64) *Engine {
	return c.slots[c.routeOrder(key)[0]].engine()
}

// retriable reports whether a replica failure may succeed on another
// replica: contained panics (ErrInternal), a replica caught mid-replacement
// (ErrEngineClosed), and shed load (ErrQueueFull) are replica-local;
// divergence and context errors are not.
func retriable(err error) bool {
	return errors.Is(err, ErrInternal) || errors.Is(err, ErrEngineClosed) || errors.Is(err, ErrQueueFull)
}

// replicaCall is how the router hands a field to a replica: PredictFlow
// (through the replica's flow key space) or submit (straight to its queue,
// for a Predict whose answer the case key space retains).
type replicaCall func(*Engine, context.Context, *grid.Flow) (*core.Inference, error)

// tryOrder submits lr to each slot in order until a success or a
// non-retriable error. With a recording trace in ctx (the route span),
// every submission becomes an attempt child span naming its replica — a
// failed-then-rerouted request shows the whole walk — and the replica that
// answered is stamped on the request note for the trace ring.
func (c *Cluster) tryOrder(ctx context.Context, order []int, lr *grid.Flow, call replicaCall, hedged bool) (*core.Inference, error) {
	sp := obs.SpanFromContext(ctx)
	var lastErr error
	for i, idx := range order {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		e := c.slots[idx].engine()
		if e == nil {
			continue
		}
		actx := ctx
		var asp *obs.Span
		if sp.Recording() {
			attrs := []obs.Attr{obs.Int("replica", int64(idx))}
			if hedged {
				attrs = append(attrs, obs.Bool("hedge", true))
			}
			asp = sp.StartChild("attempt", attrs...)
			actx = obs.ContextWithSpan(ctx, asp)
		}
		inf, err := call(e, actx, lr)
		if err == nil {
			obs.RequestNoteFrom(ctx).SetReplica(idx)
			asp.End()
			return inf, nil
		}
		asp.SetError(err)
		asp.End()
		lastErr = err
		if !retriable(err) {
			return nil, err
		}
		if i < len(order)-1 {
			c.retries.Add(1)
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("serve: cluster: no routable replicas: %w", ErrEngineClosed)
	}
	return nil, lastErr
}

// hedgeDelay is the wait before launching a hedged second attempt: the
// larger of the configured WithHedge floor and the fleet's observed p99
// end-to-end latency (once enough samples exist to trust it). Zero disables
// hedging.
func (c *Cluster) hedgeDelay() time.Duration {
	if c.cfg.hedge <= 0 {
		return 0
	}
	d := c.cfg.hedge
	var snap obs.Snapshot
	for _, s := range c.slots {
		snap.Merge(s.stats.e2e.Snapshot())
	}
	if snap.Count >= 16 {
		if p99 := time.Duration(snap.Quantile(0.99)); p99 > d {
			d = p99
		}
	}
	return d
}

type attemptResult struct {
	inf    *core.Inference
	err    error
	hedged bool
}

// do executes one routed request: the primary attempt walks the preference
// order with retries; with hedging enabled, a second walk (rotated one
// replica ahead) launches after hedgeDelay. The first success wins and the
// loser's context is cancelled; both failing returns the primary's error.
//
// With a recording trace, the whole routed execution nests under a route
// span recording the chosen home replica, whether load fallback moved the
// request off its ring home, and the hedge outcome; the per-replica
// attempts hang off it as children.
func (c *Cluster) do(ctx context.Context, key uint64, lr *grid.Flow, call replicaCall) (*core.Inference, error) {
	order := c.routeOrder(key)
	if sp := obs.SpanFromContext(ctx); sp.Recording() && len(order) > 0 {
		rsp := sp.StartChild("route",
			obs.Int("home", int64(order[0])),
			obs.Int("candidates", int64(len(order))),
			obs.Bool("off_home", order[0] != c.ring.order(key)[0]))
		inf, err := c.doRouted(obs.ContextWithSpan(ctx, rsp), order, lr, call)
		rsp.SetError(err)
		rsp.End()
		return inf, err
	}
	return c.doRouted(ctx, order, lr, call)
}

func (c *Cluster) doRouted(ctx context.Context, order []int, lr *grid.Flow, call replicaCall) (*core.Inference, error) {
	hedge := c.hedgeDelay()
	if hedge <= 0 || len(order) < 2 {
		return c.tryOrder(ctx, order, lr, call, false)
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan attemptResult, 2)
	launch := func(ord []int, hedged bool) {
		go func() {
			inf, err := c.tryOrder(actx, ord, lr, call, hedged)
			results <- attemptResult{inf: inf, err: err, hedged: hedged}
		}()
	}
	launch(order, false)
	timer := time.NewTimer(hedge)
	defer timer.Stop()

	inflight := 1
	var primaryErr error
	for {
		select {
		case <-timer.C:
			c.hedges.Add(1)
			obs.SpanFromContext(ctx).SetAttrs(obs.Bool("hedged", true))
			rotated := append(append(make([]int, 0, len(order)), order[1:]...), order[0])
			launch(rotated, true)
			inflight++
		case r := <-results:
			inflight--
			if r.err == nil {
				if r.hedged {
					c.hedgeWins.Add(1)
					obs.SpanFromContext(ctx).SetAttrs(obs.Bool("hedge_won", true))
				}
				cancel() // the losing attempt unblocks on its dead context
				return r.inf, nil
			}
			if !r.hedged {
				primaryErr = r.err
			}
			// No other attempt can answer: fail with the primary's error when
			// it has one (the hedge's error is usually just its cancellation).
			if inflight == 0 {
				if primaryErr != nil {
					return nil, primaryErr
				}
				return nil, r.err
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}
