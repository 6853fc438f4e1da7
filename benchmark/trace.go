package main

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"heaptherapy/internal/heapsim"
	"heaptherapy/internal/mem"
	"heaptherapy/internal/prog"
)

// spanHeader carries the client's span ID to the server-side handler
// wrapper, which records it as its parent.
const spanHeader = "X-Bench-Span"

// tracer keeps request-level spans in memory for the whole run and
// writes them out once, when the run ends. Calls made millions of times
// (backend and allocator operations) are not spans: they are aggregated
// per parent span into an opAgg. A nil *tracer records nothing, so the
// untraced path runs the same code.
type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

// span is one request-level call: an HTTP request, a handler, a Run, an
// Analyze, a SwapTable, a campaign Check, and so on.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Steps is the statements a prog.run span executed.
	Steps uint64  `json:"steps,omitempty"`
	Ops   []opAgg `json:"ops,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now is the tracer clock: monotonic nanoseconds since the run began.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// add stores a finished span, assigning an ID when it has none.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs f as a span named name under parent.
func (t *tracer) timed(name string, parent uint64, f func()) {
	start := t.now()
	f()
	t.add(span{Name: name, Parent: parent, Req: parent, Start: start, End: t.now()})
}

// named returns copies of every span called name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations of the spans called name, in unit.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range t.named(name) {
		out = append(out, float64(s.dur())/float64(unit))
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of it covered by child spans and by the operations aggregated under
// it. Operation totals count only top-level operations (backend calls;
// allocator calls nest inside them).
func (t *tracer) selfTimes() map[uint64]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[uint64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(t.spans))
	for _, s := range t.spans {
		covered := coverage(s, children[s.ID])
		for _, op := range s.Ops {
			if op.topLevel() {
				covered += op.Ns
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// coverage is the length of the union of the children's intervals
// clipped to the parent's.
func coverage(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curStart, curEnd int64
	curStart, curEnd = -1, -1
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curEnd {
			if curEnd > curStart {
				total += curEnd - curStart
			}
			curStart, curEnd = s, e
		} else if e > curEnd {
			curEnd = e
		}
	}
	if curEnd > curStart {
		total += curEnd - curStart
	}
	return total
}

// write stores every span as JSON in path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	return f.Close()
}

// opKind is one aggregated per-operation call class.
type opKind uint8

const (
	opAlloc   opKind = iota // backend Alloc and Realloc
	opFree                  // backend Free
	opMemop                 // backend Load, LoadInto, Store, Memcpy, Memset
	opMalloc                // allocator Malloc, Calloc, Realloc, Memalign
	opRelease               // allocator Free
	opUsable                // allocator UsableSize
	numOps
)

var opNames = [numOps]string{"backend.alloc", "backend.free", "backend.memop", "heapsim.malloc", "heapsim.free", "heapsim.usable"}

// histBuckets is the size of an opAgg histogram: bucket i counts
// operations that took [2^i, 2^(i+1)) ns, the last bucket everything
// longer.
const histBuckets = 24

// opAgg aggregates one operation kind under one parent span.
type opAgg struct {
	Name   string              `json:"name"`
	Count  uint64              `json:"count"`
	Ns     int64               `json:"total_ns"`
	SelfNs int64               `json:"self_ns"`
	Hist   [histBuckets]uint64 `json:"hist"`
}

func (a opAgg) topLevel() bool {
	return a.Name == opNames[opAlloc] || a.Name == opNames[opFree] || a.Name == opNames[opMemop]
}

// opSet accumulates operations for the span currently running on one
// goroutine; the backend and allocator wrappers of that goroutine
// share it.
type opSet struct {
	tr  *tracer
	agg [numOps]opAgg
	// nested is the allocator time so far, so a backend operation can
	// subtract the allocator calls made inside it from its self time.
	nested int64
}

func (s *opSet) enter() (start, nested int64) { return s.tr.now(), s.nested }

func (s *opSet) exit(k opKind, start, nested int64) {
	d := s.tr.now() - start
	a := &s.agg[k]
	a.Count++
	a.Ns += d
	a.SelfNs += d - (s.nested - nested)
	a.Hist[min(histBuckets-1, bits.Len64(uint64(max(d, 1)))-1)]++
	if k >= opMalloc {
		s.nested += d
	}
}

// take returns the non-empty aggregates and resets the set for the
// next span.
func (s *opSet) take() []opAgg {
	if s == nil {
		return nil
	}
	var out []opAgg
	for k := range s.agg {
		if s.agg[k].Count > 0 {
			a := s.agg[k]
			a.Name = opNames[k]
			out = append(out, a)
		}
	}
	s.agg = [numOps]opAgg{}
	s.nested = 0
	return out
}

// tracedBackend is the prog.HeapBackend handed to the executor in a
// traced replay. Engines type-assert BulkLoader, UseObserver and
// PatchProber on their backend, so the wrapper forwards all three and
// accepts only backends that implement them; otherwise the traced path
// would run different engine code than the untraced one.
type tracedBackend struct {
	inner prog.HeapBackend
	bulk  prog.BulkLoader
	obs   prog.UseObserver
	probe prog.PatchProber
	ops   *opSet
}

var (
	_ prog.HeapBackend = (*tracedBackend)(nil)
	_ prog.BulkLoader  = (*tracedBackend)(nil)
	_ prog.UseObserver = (*tracedBackend)(nil)
	_ prog.PatchProber = (*tracedBackend)(nil)
)

func newTracedBackend(inner prog.HeapBackend, ops *opSet) (*tracedBackend, error) {
	bulk, ok1 := inner.(prog.BulkLoader)
	obs, ok2 := inner.(prog.UseObserver)
	probe, ok3 := inner.(prog.PatchProber)
	if !ok1 || !ok2 || !ok3 {
		return nil, fmt.Errorf("backend %T lacks an optional interface the wrapper must forward", inner)
	}
	return &tracedBackend{inner: inner, bulk: bulk, obs: obs, probe: probe, ops: ops}, nil
}

func (b *tracedBackend) Alloc(fn heapsim.AllocFn, ccid, n, size, align uint64) (uint64, error) {
	t, h := b.ops.enter()
	p, err := b.inner.Alloc(fn, ccid, n, size, align)
	b.ops.exit(opAlloc, t, h)
	return p, err
}

func (b *tracedBackend) Realloc(ccid, ptr, size uint64) (uint64, error) {
	t, h := b.ops.enter()
	p, err := b.inner.Realloc(ccid, ptr, size)
	b.ops.exit(opAlloc, t, h)
	return p, err
}

func (b *tracedBackend) Free(ptr, ccid uint64) error {
	t, h := b.ops.enter()
	err := b.inner.Free(ptr, ccid)
	b.ops.exit(opFree, t, h)
	return err
}

func (b *tracedBackend) Load(addr, n, ccid uint64) (prog.Value, error) {
	t, h := b.ops.enter()
	v, err := b.inner.Load(addr, n, ccid)
	b.ops.exit(opMemop, t, h)
	return v, err
}

func (b *tracedBackend) LoadInto(dst *prog.Value, addr, n, ccid uint64) error {
	t, h := b.ops.enter()
	err := b.bulk.LoadInto(dst, addr, n, ccid)
	b.ops.exit(opMemop, t, h)
	return err
}

func (b *tracedBackend) Store(addr uint64, v prog.Value, ccid uint64) error {
	t, h := b.ops.enter()
	err := b.inner.Store(addr, v, ccid)
	b.ops.exit(opMemop, t, h)
	return err
}

func (b *tracedBackend) Memcpy(dst, src, n, ccid uint64) error {
	t, h := b.ops.enter()
	err := b.inner.Memcpy(dst, src, n, ccid)
	b.ops.exit(opMemop, t, h)
	return err
}

func (b *tracedBackend) Memset(addr uint64, c byte, n, ccid uint64) error {
	t, h := b.ops.enter()
	err := b.inner.Memset(addr, c, n, ccid)
	b.ops.exit(opMemop, t, h)
	return err
}

func (b *tracedBackend) CheckUse(v prog.Value, use prog.UseKind, ccid uint64) {
	b.inner.CheckUse(v, use, ccid)
}

func (b *tracedBackend) Cycles() uint64               { return b.inner.Cycles() }
func (b *tracedBackend) ObservesUse() bool            { return b.obs.ObservesUse() }
func (b *tracedBackend) PatchTableGeneration() uint64 { return b.probe.PatchTableGeneration() }
func (b *tracedBackend) ProbePatched(fn heapsim.AllocFn, ccid uint64) bool {
	return b.probe.ProbePatched(fn, ccid)
}

// tracedHeap is the heapsim.Allocator handed to the defense in a traced
// replay. It builds its boundary-tag heap on first use: the defense maps
// its patch table at construction, and the heap's arena must come after
// it, as in defense.NewBackend.
type tracedHeap struct {
	space *mem.Space
	heap  *heapsim.Heap
	ops   *opSet
	calls uint64
}

var _ heapsim.Allocator = (*tracedHeap)(nil)

func (h *tracedHeap) under() (*heapsim.Heap, error) {
	if h.heap == nil {
		hp, err := heapsim.New(h.space)
		if err != nil {
			return nil, err
		}
		h.heap = hp
	}
	return h.heap, nil
}

func (h *tracedHeap) alloc(k opKind, f func(*heapsim.Heap) (uint64, error)) (uint64, error) {
	hp, err := h.under()
	if err != nil {
		return 0, err
	}
	h.calls++
	t, n := h.ops.enter()
	p, err := f(hp)
	h.ops.exit(k, t, n)
	return p, err
}

func (h *tracedHeap) Malloc(size uint64) (uint64, error) {
	return h.alloc(opMalloc, func(hp *heapsim.Heap) (uint64, error) { return hp.Malloc(size) })
}

func (h *tracedHeap) Calloc(n, size uint64) (uint64, error) {
	return h.alloc(opMalloc, func(hp *heapsim.Heap) (uint64, error) { return hp.Calloc(n, size) })
}

func (h *tracedHeap) Realloc(ptr, size uint64) (uint64, error) {
	return h.alloc(opMalloc, func(hp *heapsim.Heap) (uint64, error) { return hp.Realloc(ptr, size) })
}

func (h *tracedHeap) Memalign(align, size uint64) (uint64, error) {
	return h.alloc(opMalloc, func(hp *heapsim.Heap) (uint64, error) { return hp.Memalign(align, size) })
}

func (h *tracedHeap) UsableSize(ptr uint64) (uint64, error) {
	return h.alloc(opUsable, func(hp *heapsim.Heap) (uint64, error) { return hp.UsableSize(ptr) })
}

func (h *tracedHeap) Free(ptr uint64) error {
	_, err := h.alloc(opRelease, func(hp *heapsim.Heap) (uint64, error) { return 0, hp.Free(ptr) })
	return err
}

// CheckIntegrity lets the campaign's invariant walker audit the heap
// through the wrapper; it is not timed.
func (h *tracedHeap) CheckIntegrity() error {
	if h.heap == nil {
		return nil
	}
	return h.heap.CheckIntegrity()
}

// tracedHandler times the serve front-end's handler. Its span's parent
// is the client's span, carried in spanHeader.
type tracedHandler struct {
	next http.Handler
	tr   *tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := h.tr.now()
	h.next.ServeHTTP(w, r)
	parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
	h.tr.add(span{Name: "serve.handler", Parent: parent, Req: parent, Start: start, End: h.tr.now()})
}
