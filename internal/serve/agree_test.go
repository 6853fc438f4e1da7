package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"heaptherapy/internal/defense"
	"heaptherapy/internal/telemetry"
)

// TestCountsAgree drives a defended service with benign requests,
// attacks and live rollouts, then requires every report of a shared
// count to read the same number: the /metrics document, serve.Stats,
// fleet.Stats and the telemetry snapshot. Each count has one store, so
// the reports can only disagree if one of them keeps a copy.
func TestCountsAgree(t *testing.T) {
	for _, fam := range []defense.Family{defense.FamilyHT, defense.FamilyMESH} {
		t.Run(fam.String(), func(t *testing.T) {
			s, ts, svc := newNginxServer(t, func(c *Config) { c.Family = fam })
			benign := func(n int) {
				for i := 0; i < n; i++ {
					if resp, _ := post(t, ts, "/request?tenant=b", svc.BenignRequest()); resp.StatusCode != http.StatusOK {
						t.Fatalf("benign request: HTTP %d", resp.StatusCode)
					}
				}
			}
			benign(5)
			post(t, ts, "/request?tenant=attacker", svc.CrashRequest())
			waitFor(t, "live rollout", func() bool { return s.Stats().Rollouts+s.Stats().RolloutFails >= 1 })
			benign(5)
			for i := 0; i < 2; i++ {
				post(t, ts, "/request?tenant=attacker", svc.CrashRequest())
			}
			benign(5)
			s.Drain() // quiesce: every request and rollout has finished

			rr := httptest.NewRecorder()
			s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
			var m Metrics
			if err := json.Unmarshal(rr.Body.Bytes(), &m); err != nil {
				t.Fatalf("/metrics: %v\n%s", err, rr.Body.Bytes())
			}
			st := s.Stats()
			fs := s.fleet.Stats()
			snap := s.cfg.Telemetry.Snapshot()
			ctr := snap.Counter

			same := func(what string, vals ...uint64) {
				t.Helper()
				for _, v := range vals[1:] {
					if v != vals[0] {
						t.Errorf("%s disagrees across reports: %v", what, vals)
						return
					}
				}
			}
			same("requests (metrics, fleet, telemetry, admitted)",
				m.Requests, fs.Requests, ctr(telemetry.CtrRequests), st.Admitted)
			same("crashes (metrics, fleet, telemetry, contained+wild+heap-limit)",
				m.Crashes, fs.Crashes, ctr(telemetry.CtrCrashes), st.Contained+st.Wild+st.HeapLimits)
			if m.Front != st {
				t.Errorf("/metrics front %+v, serve.Stats %+v", m.Front, st)
			}
			if m.Defense != fs.Defense {
				t.Errorf("/metrics defense %+v, fleet %+v", m.Defense, fs.Defense)
			}
			for _, c := range []struct {
				id   telemetry.CounterID
				stat uint64
			}{
				{telemetry.CtrPatchHits, fs.Defense.PatchedAllocs},
				{telemetry.CtrGuardPages, fs.Defense.GuardPages},
				{telemetry.CtrZeroFills, fs.Defense.ZeroFills},
				{telemetry.CtrDeferredFrees, fs.Defense.DeferredFrees},
				{telemetry.CtrQuarantineRefusals, fs.Defense.QueueEvictions},
			} {
				same(c.id.String()+" (fleet defense, telemetry, /metrics telemetry)",
					c.stat, ctr(c.id), m.Telemetry.Counter(c.id))
			}
			same("table epoch (table, fleet, metrics, rollouts)",
				s.fleet.Table().Epoch(), fs.TableSwaps, m.TableSwaps, st.Rollouts)

			// Under HT the first rollout contains the replays, so there
			// is one, and every patch hit landed on the current table.
			// MESH never consults the table (and so rolls out again on
			// every replay): it counts no hits anywhere.
			if fam == defense.FamilyHT && st.Rollouts != 1 {
				t.Fatalf("%d rollouts under HT, want 1", st.Rollouts)
			}
			var tableHits, metricHits uint64
			for _, n := range fs.PatchHits {
				tableHits += n
			}
			for _, h := range m.PatchHits {
				metricHits += h.Hits
			}
			same("patch hits (sealed table, /metrics, telemetry)",
				tableHits, metricHits, ctr(telemetry.CtrPatchHits))

			if fam == defense.FamilyHT && (st.Contained == 0 || fs.Defense.GuardPages == 0) {
				t.Errorf("HT run contained %d attacks with %d guard pages, want both nonzero", st.Contained, fs.Defense.GuardPages)
			}
			if fam == defense.FamilyMESH && (fs.Defense.ZeroFills == 0 || fs.Defense.DeferredFrees == 0) {
				t.Errorf("MESH run made %d zero fills and %d deferred frees, want both nonzero", fs.Defense.ZeroFills, fs.Defense.DeferredFrees)
			}
		})
	}
}
