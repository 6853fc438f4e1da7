package prog_test

// FuzzVMvsTree is the randomized arm of the differential suite: any
// program the textual front end accepts must behave bit-identically on
// the compiled engine's Machine — a never-promoting one on the cold
// bytecode tier and a threshold-1 one that crosses to closure code —
// and on the tree-walking interpreter, for any input bytes. Seeds cover the Table II corpus (via progtext.Print) plus
// hand-written sources that hit the compiler's trickier lowerings
// (operand check ordering, while-in-while, calls in conditions' arms,
// explicit-CCID allocations). `go test` replays the seeds;
// `go test -fuzz=FuzzVMvsTree ./internal/prog` explores.

import (
	"bytes"
	"testing"

	"heaptherapy/internal/mem"
	"heaptherapy/internal/prog"
	"heaptherapy/internal/progtext"
	"heaptherapy/internal/vuln"
)

func FuzzVMvsTree(f *testing.F) {
	literals := []string{
		"func main {\n nop\n}\n",
		"func main {\n let x = inputlen\n let y = inputrem\n outputvar x\n outputvar y\n}\n",
		"func main {\n alloc p = malloc(64)\n store p, 7, 8\n load v, p, 8\n outputvar v\n free p\n}\n",
		"func main {\n alloc p = calloc(4, 8)\n memset p, 65, 32\n output p, 32\n free p\n}\n",
		"func main {\n let i = 0\n while (i < 10) {\n  let j = 0\n  while (j < 3) {\n   let j = (j + 1)\n  }\n  let i = (i + 1)\n }\n outputvar i\n}\n",
		"func main {\n input n, 1\n call r = f(n)\n outputvar r\n}\n\nfunc f(x) {\n if x {\n  call r = f((x - 1))\n  return (r + x)\n }\n return 0\n}\n",
		"func main {\n alloc p = malloc(16) ctx 48879\n realloc q = realloc(p, 64)\n free q\n}\n",
		"func main {\n let a = 1\n let r = (a / 0)\n let s = (a % 0)\n let t = (a << 200)\n outputvar r\n outputvar s\n outputvar t\n}\n",
		"func main {\n alloc p = memalign(64, 32)\n storevar p, p\n storebytes (p + 8), \"hi\"\n memcpy (p + 16), p, 10\n output (p + 8), 2\n free p\n}\n",
	}
	for _, src := range literals {
		f.Add(src, []byte{3})
	}
	for _, c := range vuln.Named() {
		f.Add(progtext.Print(c.Program), c.Attack)
		for _, b := range c.Benign {
			f.Add(progtext.Print(c.Program), b)
		}
	}
	f.Fuzz(func(t *testing.T, src string, input []byte) {
		p, err := progtext.Parse(src)
		if err != nil {
			return // not a program; parser fuzzing lives in progtext
		}
		// Bound runaway programs identically on both engines.
		base := prog.Config{MaxSteps: 200000, MaxDepth: 64}

		mkBackend := func() prog.HeapBackend {
			space, err := mem.NewSpace(mem.Config{})
			if err != nil {
				t.Fatal(err)
			}
			b, err := prog.NewNativeBackend(space)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}

		tcfg := base
		tcfg.Backend = mkBackend()
		it, err := prog.New(p, tcfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		newMachine := func(tierUp uint64) prog.Exec {
			mcfg := base
			mcfg.Engine = prog.EngineCompiled
			mcfg.TierUp = tierUp
			pp, err := prog.Prepare(p, mcfg)
			if err != nil {
				t.Fatalf("Prepare accepted-by-parser program: %v", err)
			}
			m, err := pp.NewExec(mkBackend())
			if err != nil {
				t.Fatalf("NewExec: %v", err)
			}
			return m
		}
		// A threshold no run reaches keeps every function on the cold
		// tier.
		cold := newMachine(1 << 40)
		// Tier-up threshold 1: the machine runs each input twice below,
		// once mostly cold and once on closure code, so any fuzz-found
		// divergence between the tiers also fails here.
		mach := newMachine(1)

		tr, terr := it.Run(input)
		vr, verr := cold.Run(input)
		check := func(engine string, vr *prog.Result, verr error) {
			if (terr != nil) != (verr != nil) {
				t.Fatalf("engines disagree on error: tree %v %s %v\n--- src ---\n%s", terr, engine, verr, src)
			}
			if terr != nil {
				if terr.Error() != verr.Error() {
					t.Fatalf("error text diverges:\ntree: %v\n%s:   %v\n--- src ---\n%s", terr, engine, verr, src)
				}
				return
			}
			if !bytes.Equal(tr.Output, vr.Output) {
				t.Fatalf("output diverges:\ntree: %x\n%s:   %x\n--- src ---\n%s", tr.Output, engine, vr.Output, src)
			}
			if (tr.Fault != nil) != (vr.Fault != nil) ||
				(tr.Fault != nil && tr.Fault.Error() != vr.Fault.Error()) {
				t.Fatalf("fault diverges:\ntree: %v\n%s:   %v\n--- src ---\n%s", tr.Fault, engine, vr.Fault, src)
			}
			if tr.Steps != vr.Steps || tr.Cycles != vr.Cycles || tr.InterpCycles != vr.InterpCycles ||
				tr.Allocs != vr.Allocs || tr.Frees != vr.Frees || tr.AllocsByFn != vr.AllocsByFn {
				t.Fatalf("statistics diverge:\ntree: %+v\n%s:   %+v\n--- src ---\n%s", tr, engine, vr, src)
			}
			if !bytes.Equal(tr.Returned.Bytes, vr.Returned.Bytes) {
				t.Fatalf("returned value diverges on %s\n--- src ---\n%s", engine, src)
			}
		}
		check("cold", vr, verr)
		// Round 1: mostly cold tier.
		mr, merr := mach.Run(input)
		check("compiled", mr, merr)
		// Round 2: replay the input on both engines' (identically
		// evolved) heaps; with threshold 1 the machine now executes
		// promoted closure code for every function it reached.
		tr, terr = it.Run(input)
		mr, merr = mach.Run(input)
		check("compiled", mr, merr)
	})
}
