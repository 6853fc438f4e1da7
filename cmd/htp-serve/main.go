// Command htp-serve is the live-traffic front-end: it serves a
// vulnerable service stand-in over HTTP behind the defended fleet
// runtime and patches itself — without restarting — from the crashes
// attackers hand it. A wild heap fault is trapped, re-analyzed off the
// request path, and the resulting code-less patches are sealed into a
// new table that is swapped in atomically under load.
//
// Usage:
//
//	htp-serve -service nginx -addr 127.0.0.1:8470    # live server (SIGTERM drains)
//	htp-serve -service nginx -demo                   # scripted rollout demonstration
//	htp-serve -service mysql -engine tree -workers 8 -telemetry
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"syscall"
	"time"

	"heaptherapy/internal/defense"
	"heaptherapy/internal/patch"
	"heaptherapy/internal/prog"
	"heaptherapy/internal/serve"
	"heaptherapy/internal/telemetry"
	"heaptherapy/internal/workload"
)

// demoBenign is how many benign requests each demo phase sends.
const demoBenign = 4

// Live-server timeouts. A client that never finishes its headers
// (slowloris), trickles its body, stalls reading the reply, or idles on
// a keep-alive connection is disconnected instead of holding a
// connection forever. Requests are small and the handler answers in
// milliseconds, so these bound only misbehaving clients.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	writeTimeout      = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// announce prints operational (non-deterministic) notices: the bound
// listen address. Stdout is reserved for deterministic output so the
// golden tests can pin it. Tests override this to learn the address.
var announce = func(msg string) { fmt.Fprintln(os.Stderr, msg) }

// testStop lets tests trigger the graceful-drain path without a
// signal; the nil default never fires.
var testStop chan struct{}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "htp-serve:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("htp-serve", flag.ContinueOnError)
	serviceName := fs.String("service", "nginx", "vulnerable service stand-in: nginx or mysql")
	engineName := fs.String("engine", "compiled", "execution engine: compiled (quickened bytecode) or tree (reference interpreter)")
	policyName := fs.String("policy", "ht", "defense policy family for every tenant: ht, shadowbound, or mesh")
	workers := fs.Int("workers", 4, "worker goroutines, one defended tenant context each")
	maxInFlight := fs.Int("max-in-flight", 0, "admission bound before 429s (0 = 4*workers)")
	quota := fs.Int("tenant-quota", 0, "one tenant's share of max-in-flight (0 = no isolation)")
	patchFile := fs.String("patches", "", "initial patch configuration file (empty starts unpatched)")
	withTelemetry := fs.Bool("telemetry", false, "attach a telemetry collector (patch hit counts, /metrics snapshot)")
	addr := fs.String("addr", "127.0.0.1:8470", "listen address (live mode)")
	demo := fs.Bool("demo", false, "run the scripted live-rollout demonstration and exit; no listener")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var svc *workload.Service
	switch *serviceName {
	case "nginx":
		svc = workload.Nginx()
	case "mysql":
		svc = workload.MySQL()
	default:
		return fmt.Errorf("unknown service %q (nginx or mysql)", *serviceName)
	}
	program, err := svc.VulnerableProgram()
	if err != nil {
		return err
	}
	engine, err := prog.ParseEngine(*engineName)
	if err != nil {
		return err
	}
	family, err := defense.ParseFamily(*policyName)
	if err != nil {
		return err
	}
	patches := patch.NewSet()
	if *patchFile != "" {
		f, err := os.Open(*patchFile)
		if err != nil {
			return fmt.Errorf("opening patches: %w", err)
		}
		patches, err = patch.ReadConfig(f)
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("loading patches: %w", err)
		}
	}
	var tcol *telemetry.Collector
	if *withTelemetry {
		tcol = telemetry.New(telemetry.Config{})
	}

	// Resolve the serve defaults here so the banner states the real
	// admission geometry.
	if *workers <= 0 {
		*workers = 4
	}
	if *maxInFlight <= 0 {
		*maxInFlight = 4 * *workers
	}
	if *quota <= 0 || *quota > *maxInFlight {
		*quota = *maxInFlight
	}

	s, err := serve.New(serve.Config{
		Program:      program,
		BenignSample: svc.BenignRequest(),
		Workers:      *workers,
		MaxInFlight:  *maxInFlight,
		TenantQuota:  *quota,
		Patches:      patches,
		Engine:       engine,
		Family:       family,
		Telemetry:    tcol,
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "htp-serve: %s | engine %s | policy %s | workers %d | max in-flight %d | tenant quota %d | initial patches %d\n",
		program.Name, engine, family, *workers, *maxInFlight, *quota, patches.Len())

	if *demo {
		return runDemo(s, svc, family, stdout)
	}
	return serveLive(s, *addr, stdout)
}

// serveLive binds the listener and serves until SIGINT/SIGTERM, then
// drains: the listener stops accepting, in-flight requests finish on
// whichever table they started with, and the summary line reports what
// the fleet absorbed.
func serveLive(s *serve.Server, addr string, stdout io.Writer) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	announce("listening on http://" + ln.Addr().String())

	srv := newHTTPServer(s.Handler())
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)
	select {
	case err := <-errc:
		return err
	case <-stop:
	case <-testStop:
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		return err
	}
	s.Drain()
	m := s.Metrics()
	fmt.Fprintf(stdout, "drained: %d requests served (%d contained, %d wild), %d rollouts, %d table swaps\n",
		m.Requests, m.Front.Contained, m.Front.Wild, m.Front.Rollouts, m.TableSwaps)
	return nil
}

// newHTTPServer wraps h in the live server with its fixed timeouts.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// runDemo drives the whole incident through the real HTTP handler,
// sequentially, printing one deterministic line per act: benign
// traffic, the attack escaping an unpatched fleet, the live rollout,
// the contained replay, traffic continuing, the /metrics document, and
// the drain. This is the golden-testable face of the E2E story.
func runDemo(s *serve.Server, svc *workload.Service, family defense.Family, stdout io.Writer) error {
	h := s.Handler()
	do := func(method, path string, body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		return rr
	}
	benignWave := func() (ok int, epoch string) {
		for i := 0; i < demoBenign; i++ {
			rr := do("POST", "/request", svc.BenignRequest())
			if rr.Code == http.StatusOK && uint64(rr.Body.Len()) == svc.BufSize {
				ok++
			}
			epoch = rr.Result().Header.Get("X-HTP-Epoch")
		}
		return ok, epoch
	}

	fmt.Fprintln(stdout, "demo: zero-downtime code-less patch rollout under live traffic")

	ok, epoch := benignWave()
	fmt.Fprintf(stdout, "[1] benign x%d: %d ok, %d-byte replies, epoch %s\n", demoBenign, ok, svc.BufSize, epoch)

	rr := do("POST", "/request?tenant=attacker", svc.CrashRequest())
	outcome := rr.Result().Header.Get("X-HTP-Outcome")
	fmt.Fprintf(stdout, "[2] attack: %s (HTTP %d) — heap fault trapped, forensic bundle captured\n", outcome, rr.Code)

	if outcome == serve.OutcomeWild {
		deadline := time.Now().Add(30 * time.Second)
		for {
			st := s.Stats()
			if st.Rollouts > 0 {
				break
			}
			if st.RolloutFails > 0 {
				return fmt.Errorf("demo: live rollout failed")
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("demo: rollout never completed")
			}
			time.Sleep(2 * time.Millisecond)
		}
		m := s.Metrics()
		fmt.Fprintf(stdout, "[3] rollout: %d patch(es) live after table swap %d — no restart\n", m.Patches, m.TableSwaps)
	} else {
		fmt.Fprintln(stdout, "[3] rollout: not needed, the initial patch table already contains the attack")
	}

	rr = do("POST", "/request?tenant=attacker", svc.CrashRequest())
	replay := rr.Result().Header.Get("X-HTP-Outcome")
	note := "guard page absorbed the overflow"
	if replay != serve.OutcomeContained {
		note = "the " + family.String() + " policy does not contain this kind"
	} else if family != defense.FamilyHT {
		note = "the " + family.String() + " policy contained it without patches"
	}
	fmt.Fprintf(stdout, "[4] attack replay: %s (HTTP %d) — %s\n", replay, rr.Code, note)

	ok, epoch = benignWave()
	fmt.Fprintf(stdout, "[5] benign x%d: %d ok, epoch %s — traffic never stopped\n", demoBenign, ok, epoch)

	fmt.Fprintln(stdout, "[6] GET /metrics:")
	rr = do("GET", "/metrics", nil)
	stdout.Write(rr.Body.Bytes())

	s.Drain()
	rr = do("POST", "/request", svc.BenignRequest())
	fmt.Fprintf(stdout, "[7] drain: complete — post-drain request rejected with HTTP %d\n", rr.Code)
	return nil
}
