package prog_test

// FuzzVMvsTree is the randomized arm of the differential suite: any
// program the textual front end accepts must behave bit-identically on
// every engine of prog.EngineConfigs, for any input bytes. Seeds cover
// the Table II corpus (via progtext.Print) plus hand-written sources that hit the compiler's trickier lowerings
// (operand check ordering, while-in-while, calls in conditions' arms,
// explicit-CCID allocations) and the quickened-shape conformance rows
// (quicken_test.go). `go test` replays the seeds;
// `go test -fuzz=FuzzVMvsTree ./internal/prog` explores.

import (
	"bytes"
	"testing"

	"heaptherapy/internal/prog"
	"heaptherapy/internal/progtext"
	"heaptherapy/internal/vuln"
)

// fuzzLiterals are FuzzVMvsTree's hand-written seed sources.
var fuzzLiterals = []string{
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

func FuzzVMvsTree(f *testing.F) {
	for _, src := range fuzzLiterals {
		f.Add(src, []byte{3})
	}
	for _, s := range quickenedShapes {
		f.Add(s.src, []byte{3})
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
		base := prog.Config{MaxSteps: 200000}

		newExec := func(engine prog.Engine) prog.Exec {
			cfg := base
			cfg.Engine = engine
			pp, err := prog.Prepare(p, cfg)
			if err != nil {
				t.Fatalf("Prepare accepted-by-parser program on %v: %v", engine, err)
			}
			ex, err := pp.NewExec(newNativeBackend(t))
			if err != nil {
				t.Fatalf("NewExec: %v", err)
			}
			return ex
		}
		tr, terr := newExec(prog.EngineConfigs[0].Engine).Run(input)
		for _, ec := range prog.EngineConfigs[1:] {
			engine := ec.Name
			vr, verr := newExec(ec.Engine).Run(input)
			if (terr != nil) != (verr != nil) {
				t.Fatalf("engines disagree on error: tree %v %s %v\n--- src ---\n%s", terr, engine, verr, src)
			}
			if terr != nil {
				if terr.Error() != verr.Error() {
					t.Fatalf("error text diverges:\ntree: %v\n%s:   %v\n--- src ---\n%s", terr, engine, verr, src)
				}
				continue
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
	})
}
