package prog

import (
	"fmt"
)

// Threading. The paper stores the current CCID in a thread-local
// variable V, and its service evaluation (Nginx, MySQL) runs
// multithreaded servers over one shared heap. This file adds
// deterministic multi-threaded execution: N interpreter instances —
// each with its OWN V (thread locality) — share ONE heap backend, and
// a cooperative scheduler interleaves them round-robin with a fixed
// statement quantum. Determinism keeps CCIDs and test outcomes
// reproducible while still exercising cross-thread heap interleaving
// (allocations from different threads interleave in the shared arena,
// so adjacency and reuse cross thread boundaries exactly as they do
// under a real multithreaded allocator).

// DefaultQuantum is the default scheduling quantum in statements.
const DefaultQuantum = 64

// RunThreads executes one instance of p per input, all sharing
// cfg.Backend, interleaved deterministically. The i-th result
// corresponds to the i-th input. An execution error in any thread
// aborts the run.
func RunThreads(p *Program, cfg Config, inputs [][]byte, quantum uint64) ([]*Result, error) {
	n := len(inputs)
	if n == 0 {
		return nil, fmt.Errorf("prog: RunThreads with no inputs")
	}
	if quantum == 0 {
		quantum = DefaultQuantum
	}

	type outcome struct {
		res *Result
		err error
	}
	grants := make([]chan struct{}, n)
	events := make(chan int) // thread i yielded
	finals := make([]outcome, n)
	finished := make(chan int)

	// Construct every executor before spawning any goroutine: if a
	// construction fails mid-loop, no thread goroutine exists yet to be
	// left blocked on a grant that will never come. The program is
	// prepared once, so compiled-engine threads share one bytecode.
	pp, err := Prepare(p, cfg)
	if err != nil {
		return nil, err
	}
	interps := make([]runner, n)
	for i := 0; i < n; i++ {
		it, err := pp.newRunner(cfg.Backend)
		if err != nil {
			return nil, err
		}
		grants[i] = make(chan struct{})
		i := i
		it.setSchedHook(quantum, func() {
			events <- i
			<-grants[i]
		})
		interps[i] = it
	}
	for i := 0; i < n; i++ {
		i := i
		go func() {
			<-grants[i] // wait for the first grant
			res, err := interps[i].Run(inputs[i])
			finals[i] = outcome{res: res, err: err}
			finished <- i
		}()
	}

	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	remaining := n
	for remaining > 0 {
		for i := 0; i < n; i++ {
			if !alive[i] {
				continue
			}
			grants[i] <- struct{}{}
			select {
			case <-events: // thread i yielded; next thread's turn
			case j := <-finished:
				alive[j] = false
				remaining--
			}
		}
	}

	results := make([]*Result, n)
	for i, o := range finals {
		if o.err != nil {
			return nil, fmt.Errorf("prog: thread %d: %w", i, o.err)
		}
		results[i] = o.res
	}
	return results, nil
}
