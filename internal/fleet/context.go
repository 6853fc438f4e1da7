package fleet

import (
	"fmt"

	"heaptherapy/internal/defense"
	"heaptherapy/internal/heapsim"
	"heaptherapy/internal/mem"
	"heaptherapy/internal/prog"
	"heaptherapy/internal/telemetry"
)

// resettableBackend is what a worker needs from its execution
// substrate: the interpreter-facing backend interface plus in-place
// recycling. Both prog.NativeBackend and defense.Backend satisfy it.
type resettableBackend interface {
	prog.HeapBackend
	Reset() error
}

// Context is one worker's private execution state: an address space,
// an allocator, and (when defended) a defense layer over the fleet's
// shared table. A Context is owned by exactly one goroutine between
// Acquire and Release; nothing in it is synchronized.
type Context struct {
	space    *mem.Space
	backend  resettableBackend
	defender *defense.Defender      // nil for native contexts
	pool     *heapsim.PoolAllocator // non-nil only for AllocPool

	// tel is this worker's telemetry scope (its tenant identity);
	// pooled reuse keeps the scope, so a context's counters accumulate
	// across every request it ever serves. Nil when the fleet has no
	// collector.
	tel *telemetry.Scope
}

// Space returns the context's private address space.
func (c *Context) Space() *mem.Space { return c.space }

// Backend returns the context's execution backend for building an
// interpreter.
func (c *Context) Backend() prog.HeapBackend { return c.backend }

// Defender returns the context's defense layer, nil for a native
// context.
func (c *Context) Defender() *defense.Defender { return c.defender }

// Telemetry returns the context's telemetry scope, nil when the fleet
// runs without a collector.
func (c *Context) Telemetry() *telemetry.Scope { return c.tel }

// Reset recycles the context to its post-construction state. The
// order is load-bearing: the space rewinds first (zeroing only dirty
// pages and returning the break to the initial reserve), then the
// backend rebuilds over the clean space, then a custom allocator
// re-zeroes its own bookkeeping. After one warm cycle this path
// performs no Go allocations, which is what makes pooled reuse cheap.
func (c *Context) Reset() error {
	c.space.Reset()
	if err := c.backend.Reset(); err != nil {
		return err
	}
	if c.pool != nil {
		c.pool.Reset()
	}
	return nil
}

// SyncTable re-points the context's defense layer at the fleet's
// CURRENT sealed table, reporting whether a swap occurred. A pooled
// context may have been built before a SwapTable; syncing at checkout
// is what makes a rollout reach recycled workers — the Defender's
// generation bump then invalidates every engine verdict cache bound to
// this context's backend. Native contexts have nothing to sync. A
// Defender that cannot take the table (one built without a shared
// table) is an error; the context keeps its old table.
//
// Must be called by the context's owning goroutine (between Acquire
// and Release), like every other Context method.
func (c *Context) SyncTable(f *Fleet) (bool, error) {
	if c.defender == nil {
		return false, nil
	}
	cur := f.Table()
	if cur == nil || c.defender.SharedTable() == cur {
		return false, nil
	}
	if err := c.defender.SwapSharedTable(cur); err != nil {
		return false, fmt.Errorf("fleet: syncing context table: %w", err)
	}
	return true, nil
}

// Acquire returns a ready-to-use worker context: a pooled one when
// available (already Reset, re-pointed at the current sealed table), a
// freshly built one otherwise. A pooled context that cannot be
// re-pointed is dropped and its SyncTable error returned.
func (f *Fleet) Acquire() (*Context, error) {
	if c, ok := f.ctxPool.Get().(*Context); ok {
		if _, err := c.SyncTable(f); err != nil {
			return nil, err
		}
		return c, nil
	}
	return f.newContext()
}

// DrainPool discards every pooled context and reports how many were
// dropped. Use it when the fleet goes quiet (graceful shutdown) so
// worker spaces are released to the garbage collector, or in tests
// that need the next Acquire to construct from scratch. Contexts
// currently checked out are unaffected.
func (f *Fleet) DrainPool() int {
	n := 0
	for {
		if _, ok := f.ctxPool.Get().(*Context); !ok {
			return n
		}
		n++
	}
}

// Release returns a context to the pool for reuse. The context must
// be Reset (FinishRequest leaves it so); a dirty context would leak
// one request's heap state into another tenant's execution.
func (f *Fleet) Release(c *Context) {
	f.ctxPool.Put(c)
}

// newContext builds a worker context from scratch — the expensive
// path the pool exists to avoid.
func (f *Fleet) newContext() (*Context, error) {
	space, err := mem.NewSpace(f.cfg.Space)
	if err != nil {
		return nil, fmt.Errorf("fleet: worker space: %w", err)
	}
	c := &Context{space: space}
	if f.cfg.Telemetry != nil {
		c.tel = f.cfg.Telemetry.Scope()
		space.SetTelemetry(c.tel)
	}
	if !f.cfg.Defended {
		nb, err := prog.NewNativeBackend(space)
		if err != nil {
			return nil, fmt.Errorf("fleet: native backend: %w", err)
		}
		if h := nb.Heap(); h != nil {
			h.SetTelemetry(c.tel)
		}
		c.backend = nb
		f.contextsBuilt.Add(1)
		return c, nil
	}

	dcfg := defense.Config{
		Mode:        f.cfg.Mode,
		Family:      f.cfg.Family,
		SharedTable: f.Table(),
		QueueQuota:  f.cfg.QueueQuota,
		Telemetry:   c.tel,
	}
	switch f.cfg.Alloc {
	case AllocPool:
		pool, err := heapsim.NewPool(space)
		if err != nil {
			return nil, fmt.Errorf("fleet: pool allocator: %w", err)
		}
		pool.SetTelemetry(c.tel)
		b, err := defense.NewBackendWithAllocator(space, pool, dcfg)
		if err != nil {
			return nil, fmt.Errorf("fleet: defended backend: %w", err)
		}
		c.pool = pool
		c.backend = b
		c.defender = b.Defender()
	default:
		b, err := defense.NewBackend(space, dcfg)
		if err != nil {
			return nil, fmt.Errorf("fleet: defended backend: %w", err)
		}
		c.backend = b
		c.defender = b.Defender()
	}
	f.contextsBuilt.Add(1)
	return c, nil
}
