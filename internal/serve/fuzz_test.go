package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"

	"heaptherapy/internal/telemetry"
	"heaptherapy/internal/workload"
)

// FuzzHandler drives the HTTP front-end with arbitrary methods, paths,
// bodies and ?tenant= names. Whatever arrives, the handler must answer
// with a status it documents, never panic, and stamp every request
// that ran with a parseable epoch and a known outcome.
func FuzzHandler(f *testing.F) {
	svc := workload.Nginx()
	p, err := svc.VulnerableProgram()
	if err != nil {
		f.Fatal(err)
	}
	s, err := New(Config{
		Program:     p,
		Workers:     2,
		MaxInFlight: 8,
		MaxSteps:    1 << 20,
		Telemetry:   telemetry.New(telemetry.Config{}),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Drain)
	h := s.Handler()

	f.Add("POST", "/request", svc.BenignRequest(), "")
	f.Add("POST", "/request", svc.CrashRequest(), "attacker")
	f.Add("GET", "/metrics", []byte(nil), "")
	f.Add("GET", "/healthz", []byte(nil), "t")
	f.Add("PUT", "/request", []byte("x"), "t")
	f.Add("POST", "/request/../metrics", []byte{0xFF, 0xFF}, "\x00")
	f.Add("DELETE", "//", []byte(nil), "a&b=c")

	allowed := map[int]bool{
		http.StatusOK: true, http.StatusMovedPermanently: true, http.StatusTemporaryRedirect: true,
		http.StatusPermanentRedirect: true, http.StatusBadRequest: true, http.StatusNotFound: true,
		http.StatusMethodNotAllowed: true, http.StatusRequestEntityTooLarge: true,
		http.StatusUnprocessableEntity: true, http.StatusTooManyRequests: true,
		http.StatusInternalServerError: true, http.StatusBadGateway: true,
	}
	outcomes := map[string]int{
		OutcomeOK:        http.StatusOK,
		OutcomeContained: http.StatusBadGateway,
		OutcomeWild:      http.StatusInternalServerError,
		OutcomeStepLimit: http.StatusUnprocessableEntity,
		OutcomeHeapLimit: http.StatusUnprocessableEntity,
	}
	f.Fuzz(func(t *testing.T, method, path string, body []byte, tenant string) {
		u := &url.URL{Scheme: "http", Host: "htp.test", Path: path, RawQuery: url.Values{"tenant": {tenant}}.Encode()}
		req, err := http.NewRequest(method, u.String(), bytes.NewReader(body))
		if err != nil {
			t.Skip(err)
		}
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		if !allowed[rr.Code] {
			t.Fatalf("%s %q: undocumented status %d", method, path, rr.Code)
		}
		outcome := rr.Header().Get("X-HTP-Outcome")
		if outcome == "" {
			return
		}
		if want, ok := outcomes[outcome]; !ok || rr.Code != want {
			t.Fatalf("%s %q: outcome %q with status %d", method, path, outcome, rr.Code)
		}
		if _, err := strconv.ParseUint(rr.Header().Get("X-HTP-Epoch"), 10, 64); err != nil {
			t.Fatalf("%s %q ran without an epoch: %v", method, path, err)
		}
	})
}
