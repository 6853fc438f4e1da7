package serve

import (
	"encoding/binary"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"heaptherapy/internal/heapsim"
	"heaptherapy/internal/mem"
	"heaptherapy/internal/patch"
	"heaptherapy/internal/prog"
)

// epochSites is the number of allocation contexts the epoch program
// has; the table of epoch e patches site e % epochSites.
const epochSites = 8

// epochProgram calls epochSites functions, each allocating 16 bytes
// under its own calling context and writing the pointer to the output,
// then allocates and writes one last pointer. An overflow patch on one
// site puts a guard page behind that buffer, so the next pointer jumps
// by more than a page: the output says which site the table patched.
func epochProgram() *prog.Program {
	funcs := map[string]*prog.Func{}
	var main []prog.Stmt
	for i := 0; i < epochSites; i++ {
		name := fmt.Sprintf("site%d", i)
		funcs[name] = &prog.Func{Body: []prog.Stmt{
			prog.Alloc{Dst: "p", Size: prog.C(16)},
			prog.OutputVar{Src: "p"},
		}}
		main = append(main, prog.Call{Callee: name})
	}
	main = append(main,
		prog.Alloc{Dst: "end", Size: prog.C(16)},
		prog.OutputVar{Src: "end"},
	)
	funcs["main"] = &prog.Func{Body: main}
	return prog.MustLink(&prog.Program{Name: "epoch-sites", Funcs: funcs})
}

// siteCCIDs records the allocation-time CCID of each site under the
// server's coder, from one native run.
func siteCCIDs(t *testing.T, s *Server) []uint64 {
	t.Helper()
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	nb, err := prog.NewNativeBackend(space)
	if err != nil {
		t.Fatal(err)
	}
	rec := &ccidRecorder{HeapBackend: nb}
	it, err := prog.New(s.cfg.Program, prog.Config{Backend: rec, Coder: s.coder})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := it.Run(nil); err != nil {
		t.Fatal(err)
	}
	if len(rec.ccids) != epochSites+1 {
		t.Fatalf("recorded %d allocations, want %d", len(rec.ccids), epochSites+1)
	}
	seen := map[uint64]bool{}
	for _, c := range rec.ccids[:epochSites] {
		if seen[c] {
			t.Fatalf("two sites share CCID %#x", c)
		}
		seen[c] = true
	}
	return rec.ccids[:epochSites]
}

// ccidRecorder wraps a backend and records the CCID of every Alloc.
type ccidRecorder struct {
	prog.HeapBackend
	ccids []uint64
}

func (r *ccidRecorder) Alloc(fn heapsim.AllocFn, ccid, n, size, align uint64) (uint64, error) {
	r.ccids = append(r.ccids, ccid)
	return r.HeapBackend.Alloc(fn, ccid, n, size, align)
}

// guardedSite decodes an epoch-program reply: the one site whose next
// pointer lies more than a page on, or -1 when none or several do.
func guardedSite(out []byte) int {
	if len(out) != 8*(epochSites+1) {
		return -1
	}
	site := -1
	for i := 0; i < epochSites; i++ {
		p := binary.LittleEndian.Uint64(out[8*i:])
		next := binary.LittleEndian.Uint64(out[8*i+8:])
		if next-p > mem.PageSize {
			if site >= 0 {
				return -1
			}
			site = i
		}
	}
	return site
}

// TestEpochNamesServingTable pins the X-HTP-Epoch contract under
// concurrent rollouts: while one goroutine swaps tables as fast as it
// can (the table of epoch e patches only site e % epochSites), every
// response's epoch must name the table the request actually ran under,
// which the reply itself reveals through the guarded site.
func TestEpochNamesServingTable(t *testing.T) {
	s, err := New(Config{Program: epochProgram(), Workers: 4, MaxInFlight: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	ccids := siteCCIDs(t, s)
	tableFor := func(epoch uint64) *patch.Set {
		set := patch.NewSet()
		set.Add(patch.Patch{Fn: heapsim.FnMalloc, CCID: ccids[epoch%epochSites], Types: patch.TypeOverflow})
		return set
	}
	// The server starts on an empty table, epoch 0; traffic starts on
	// epoch 1.
	if _, err := s.fleet.SwapTable(tableFor(1)); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	var stop atomic.Bool
	var swaps atomic.Uint64
	swapped := make(chan struct{})
	go func() {
		defer close(swapped)
		for e := uint64(2); !stop.Load(); e++ {
			if _, err := s.fleet.SwapTable(tableFor(e)); err != nil {
				t.Error(err)
				return
			}
			swaps.Add(1)
		}
	}()

	var wg sync.WaitGroup
	var mismatches, served atomic.Uint64
	var firstBad atomic.Value
	for c := 0; c < epochClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < epochRequests; i++ {
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, httptest.NewRequest("POST", "/request", strings.NewReader("")))
				if rr.Code != http.StatusOK {
					t.Errorf("request: HTTP %d %s", rr.Code, rr.Body.String())
					return
				}
				epoch, err := strconv.ParseUint(rr.Header().Get("X-HTP-Epoch"), 10, 64)
				if err != nil {
					t.Errorf("epoch header: %v", err)
					return
				}
				served.Add(1)
				if site := guardedSite(rr.Body.Bytes()); site != int(epoch%epochSites) {
					mismatches.Add(1)
					firstBad.CompareAndSwap(nil, fmt.Sprintf("epoch %d but guarded site %d", epoch, site))
				}
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	<-swapped

	if n := mismatches.Load(); n != 0 {
		t.Errorf("%d of %d responses named a table they did not run under (first: %v; %d swaps)",
			n, served.Load(), firstBad.Load(), swaps.Load())
	}
	if swaps.Load() == 0 {
		t.Error("the swapper never swapped")
	}
}
