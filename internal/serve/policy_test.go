package serve

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"heaptherapy/internal/defense"
	"heaptherapy/internal/workload"
)

// TestServePolicyShadowBoundContainsFirstCrash: under the ShadowBound
// policy the crash request — a spatial overread — is contained by the
// bounds check on the VERY FIRST hit, with no patches, no capture, no
// rollout: the family defends every allocation instead of waiting for
// the crash→analyze→swap loop.
func TestServePolicyShadowBoundContainsFirstCrash(t *testing.T) {
	s, ts, svc := newNginxServer(t, func(c *Config) {
		c.Family = defense.FamilyShadowBound
	})

	resp, _ := post(t, ts, "/request", svc.CrashRequest())
	if got := resp.Header.Get("X-HTP-Outcome"); got != OutcomeContained {
		t.Fatalf("first attack outcome %q, want %q (bounds check needs no rollout)", got, OutcomeContained)
	}
	st := s.Stats()
	if st.Wild != 0 || st.Contained == 0 {
		t.Errorf("stats wild=%d contained=%d, want 0 wild", st.Wild, st.Contained)
	}
	if st.Rollouts != 0 || st.RolloutFails != 0 {
		t.Errorf("contained crash still entered the rollout path: %+v", st)
	}

	// Benign traffic is untouched by the per-access checking.
	resp, _ = post(t, ts, "/request", svc.BenignRequest())
	if resp.StatusCode != http.StatusOK {
		t.Errorf("benign request: %d", resp.StatusCode)
	}
}

// TestServePolicyBenignEquivalence: benign responses are byte-for-byte
// identical whichever policy the server runs — the families differ in
// what they do to attacks, never to correct traffic.
func TestServePolicyBenignEquivalence(t *testing.T) {
	svc := workload.Nginx()
	body := func(fam defense.Family) []byte {
		_, ts, _ := newNginxServer(t, func(c *Config) { c.Family = fam })
		resp, out := post(t, ts, "/request", svc.BenignRequest())
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%v benign request: %d", fam, resp.StatusCode)
		}
		return out
	}
	want := body(defense.FamilyHT)
	for _, fam := range []defense.Family{defense.FamilyShadowBound, defense.FamilyMESH} {
		if got := body(fam); string(got) != string(want) {
			t.Errorf("%v benign response diverged from HT", fam)
		}
	}
}

// TestServePolicyNoGoroutineLeak mirrors TestServeNoGoroutineLeak for
// the non-default policies: a full lifecycle — traffic, a crash, drain
// — returns the goroutine count to its baseline under each family.
func TestServePolicyNoGoroutineLeak(t *testing.T) {
	for _, fam := range []defense.Family{defense.FamilyShadowBound, defense.FamilyMESH} {
		fam := fam
		t.Run(fam.String(), func(t *testing.T) {
			before := runtime.NumGoroutine()

			svc := workload.Nginx()
			p, err := svc.VulnerableProgram()
			if err != nil {
				t.Fatal(err)
			}
			s, err := New(Config{Program: p, Workers: 3, Family: fam})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())

			for i := 0; i < 5; i++ {
				resp, _ := post(t, ts, "/request", svc.BenignRequest())
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("benign request %d: %d", i, resp.StatusCode)
				}
			}
			post(t, ts, "/request", svc.CrashRequest())

			if got := drainAndCount(t, s, ts, before); got > before {
				t.Errorf("%v: goroutines %d after drain, want <= %d", fam, got, before)
			}
		})
	}
}
