package main

import (
	"bytes"
	"fmt"
	"net/http"
	"time"

	"heaptherapy/internal/campaign"
	"heaptherapy/internal/core"
	"heaptherapy/internal/prog"
	"heaptherapy/internal/serve"
)

// reply is one HTTP answer from the serve front-end.
type reply struct {
	status  int
	outcome string // X-HTP-Outcome
	body    []byte
}

// checkBenign: a benign request for n bytes is answered 200/ok with
// exactly n bytes of '.', the reply buffer's fill.
func checkBenign(n int, r reply) error {
	if r.status != http.StatusOK || r.outcome != serve.OutcomeOK {
		return fmt.Errorf("benign request (n=%d): HTTP %d outcome %q", n, r.status, r.outcome)
	}
	if len(r.body) != n || bytes.Count(r.body, []byte{'.'}) != n {
		return fmt.Errorf("benign request (n=%d): reply is %d bytes, not %d dots", n, len(r.body), n)
	}
	return nil
}

// checkContained: an attack on a patched service ends contained.
func checkContained(r reply) error {
	if r.outcome != serve.OutcomeContained {
		return fmt.Errorf("attack on a patched service: HTTP %d outcome %q, want %q", r.status, r.outcome, serve.OutcomeContained)
	}
	return nil
}

// checkNoSecret: no reply ever carries the service's session secret.
func checkNoSecret(r reply, secret []byte) error {
	if bytes.Contains(r.body, secret) {
		return fmt.Errorf("reply leaked the session secret (HTTP %d outcome %q)", r.status, r.outcome)
	}
	return nil
}

// checkImmunity: a rollout episode must end contained within limit.
func checkImmunity(immune bool, took, limit time.Duration) error {
	if !immune || took > limit {
		return fmt.Errorf("rollout not immune after %v (limit %v)", took.Round(time.Millisecond), limit)
	}
	return nil
}

// checkDefended: a defended run of a benign workload matches the native
// run's output and step count, does not crash, and leaves the heap
// consistent.
func checkDefended(native *prog.Result, d *core.DefendedRun) error {
	switch {
	case d.Result.Crashed():
		return fmt.Errorf("defended run crashed: %v", d.Result.Fault)
	case d.HeapErr != nil:
		return fmt.Errorf("defended run corrupted the heap: %v", d.HeapErr)
	case !bytes.Equal(d.Result.Output, native.Output):
		return fmt.Errorf("defended output (%d bytes) differs from native (%d bytes)", len(d.Result.Output), len(native.Output))
	case d.Result.Steps != native.Steps:
		return fmt.Errorf("defended run took %d steps, native %d", d.Result.Steps, native.Steps)
	}
	return nil
}

// checkCampaign: a campaign batch checks every seed and none fails.
func checkCampaign(rep *campaign.RunReport, seeds uint64) error {
	if uint64(rep.Cases) != seeds {
		return fmt.Errorf("campaign checked %d of %d seeds", rep.Cases, seeds)
	}
	if rep.FailingSeeds != 0 {
		return fmt.Errorf("campaign: %d failing seeds, first %+v", rep.FailingSeeds, rep.Failures[0])
	}
	return nil
}

// checkReplay: a traced replay is bit-identical to the untraced path.
func checkReplay(what string, untraced, traced *prog.Result) error {
	fault := func(r *prog.Result) string {
		if r.Fault == nil {
			return ""
		}
		return r.Fault.Error()
	}
	switch {
	case !bytes.Equal(untraced.Output, traced.Output):
		return fmt.Errorf("%s: traced output differs", what)
	case fault(untraced) != fault(traced):
		return fmt.Errorf("%s: traced fault %q, untraced %q", what, fault(traced), fault(untraced))
	case untraced.Steps != traced.Steps:
		return fmt.Errorf("%s: traced steps %d, untraced %d", what, traced.Steps, untraced.Steps)
	case untraced.Cycles != traced.Cycles:
		return fmt.Errorf("%s: traced cycles %d, untraced %d", what, traced.Cycles, untraced.Cycles)
	}
	return nil
}

// maxMsgs is how many failure messages a tally keeps.
const maxMsgs = 8

// tally counts checked operations and keeps the first few failures.
type tally struct {
	attempted, failed int
	msgs              []string
}

// note records one checked operation; err is its first failed check.
func (t *tally) note(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		t.keep(err.Error())
	}
}

func (t *tally) keep(msgs ...string) {
	for _, m := range msgs {
		if len(t.msgs) < maxMsgs {
			t.msgs = append(t.msgs, m)
		}
	}
}

// add merges another tally into t.
func (t *tally) add(u tally) {
	t.attempted += u.attempted
	t.failed += u.failed
	t.keep(u.msgs...)
}

// firstErr returns the first non-nil error.
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
