package fleet

import (
	"fmt"

	"heaptherapy/internal/defense"
	"heaptherapy/internal/mem"
	"heaptherapy/internal/prog"
	"heaptherapy/internal/telemetry"
)

// Context is one worker's private execution state: an address space
// and a defended backend (a defense layer over its own heap) probing
// the fleet's shared table. A Context is owned by the one goroutine
// that Acquired it; nothing in it is synchronized.
type Context struct {
	space   *mem.Space
	backend *defense.Backend

	// tel is this worker's telemetry scope (its tenant identity);
	// Reset keeps the scope, so a context's counters accumulate
	// across every request it ever serves. Nil when the fleet has no
	// collector.
	tel *telemetry.Scope
}

// Space returns the context's private address space.
func (c *Context) Space() *mem.Space { return c.space }

// Backend returns the context's execution backend for building an
// interpreter.
func (c *Context) Backend() prog.HeapBackend { return c.backend }

// Reset recycles the context to its post-construction state. The
// order is load-bearing: the space rewinds first (zeroing only dirty
// pages and returning the break to the initial reserve), then the
// backend rebuilds over the clean space. After one warm cycle this
// path performs no Go allocations, which is what makes recycling a
// context cheap.
func (c *Context) Reset() error {
	c.space.Reset()
	return c.backend.Reset()
}

// SyncTable re-points the context's defense layer at the fleet's
// CURRENT sealed table and returns the table the context now runs on.
// A live context may have been built before a SwapTable; syncing before
// each request is what makes a rollout reach running workers: the
// context's next allocation looks up the new table. A Defender that
// cannot take the table (one built without a shared table) is an
// error; the context keeps, and SyncTable returns, its old table.
//
// Must be called by the context's owning goroutine, like every other
// Context method.
func (c *Context) SyncTable(f *Fleet) (*defense.SealedTable, error) {
	d := c.backend.Defender()
	cur := f.Table()
	if d.SharedTable() == cur {
		return cur, nil
	}
	if err := d.SwapSharedTable(cur); err != nil {
		return d.SharedTable(), fmt.Errorf("fleet: syncing context table: %w", err)
	}
	return cur, nil
}

// Acquire builds a worker context on the fleet's current sealed
// table. The caller owns it for as long as it serves; FinishRequest
// recycles it between requests.
func (f *Fleet) Acquire() (*Context, error) {
	space, err := mem.NewSpace(f.cfg.Space)
	if err != nil {
		return nil, fmt.Errorf("fleet: worker space: %w", err)
	}
	c := &Context{space: space}
	if f.cfg.Telemetry != nil {
		c.tel = f.cfg.Telemetry.Scope()
		space.SetTelemetry(c.tel)
	}
	b, err := defense.NewBackend(space, defense.Config{
		Family:      f.cfg.Family,
		SharedTable: f.Table(),
		Telemetry:   c.tel,
	})
	if err != nil {
		return nil, fmt.Errorf("fleet: defended backend: %w", err)
	}
	c.backend = b
	f.contextsBuilt.Add(1)
	return c, nil
}

// Release is kept so existing callers still compile.
//
// Deprecated: no effect. A context is garbage once its worker drops it.
func (f *Fleet) Release(c *Context) {}
