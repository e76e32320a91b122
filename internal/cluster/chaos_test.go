package cluster

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
)

// TestChaosKillReplicaMidBatch is the partial-failure acceptance test:
// 3 in-process replicas, one SIGKILL-equivalent'd (connections severed,
// listener closed) while its shard is mid-check. The router must move
// the dead replica's shard whole to a survivor and the merged response
// must stay byte-identical to the serial single-node run — no property
// lost, none answered twice.
func TestChaosKillReplicaMidBatch(t *testing.T) {
	// Ground truth first: once the global sleep fault is armed it also
	// fires inside this process's own core engines.
	want := normalizeElapsed(encodeRecords(t, referenceRecords(t)))

	servers, svcs, urls := newFleet(t, 3, nil)
	rt := newTestRouter(t, urls, nil)

	// Slow every property check by 150ms so the kill reliably lands
	// mid-batch. Sleep returns nil — verdicts and metrics are untouched.
	set, err := faultinject.Parse("engine.atpg=sleep:150ms")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.SetGlobal(set)
	defer faultinject.SetGlobal(nil)

	req := clusterReq()
	hash := core.Fingerprint(req.Design, req.Top)
	victim := rt.candidates(hash)[0] // shard 0's primary
	victimIdx := -1
	for i, u := range urls {
		if u == victim.url {
			victimIdx = i
		}
	}
	if victimIdx < 0 {
		t.Fatalf("victim %s not in fleet", victim.url)
	}

	type result struct {
		recs []core.JSONRecord
		err  error
	}
	done := make(chan result, 1)
	go func() {
		recs, _, err := rt.Check(context.Background(), req)
		done <- result{recs: recs, err: err}
	}()

	// Wait until the victim is actually processing its shard, then cut
	// every connection and the listener: in-flight sub-requests see a
	// reset, new dials are refused.
	deadline := time.Now().Add(5 * time.Second)
	for svcs[victimIdx].InFlight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("victim replica never went busy")
		}
		time.Sleep(time.Millisecond)
	}
	servers[victimIdx].CloseClientConnections()
	servers[victimIdx].Listener.Close()

	var res result
	select {
	case res = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("batch did not complete after replica kill")
	}
	if res.err != nil {
		t.Fatalf("check after kill: %v", res.err)
	}
	if len(res.recs) != 8 {
		t.Fatalf("got %d records, want 8", len(res.recs))
	}
	// Check() itself enforces each property answered exactly once; the
	// byte comparison additionally pins order and every metric column.
	if got := normalizeElapsed(encodeRecords(t, res.recs)); got != want {
		t.Fatalf("post-kill merged response differs from serial run:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if rt.failovers.Load() == 0 {
		t.Fatal("kill mid-batch caused no failover")
	}
	// Down-detection of the killed replica is deliberately NOT asserted
	// here: closing the listener frees its ephemeral port, which another
	// package's test server can rebind while this test's monitor is
	// still polling, answering /healthz 200 and keeping the victim
	// "healthy". The health state machine is covered deterministically
	// (port stays bound) by TestRouterMarksFailingReplicaDownAndRecovers.
}
