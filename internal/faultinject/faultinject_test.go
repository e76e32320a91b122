package faultinject

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestParseRejectsGarbage(t *testing.T) {
	for _, spec := range []string{
		"nonsense",
		"nopoint=error",
		"compile=explode",
		"engine.atpg=sleep:xyz",
		"compile",
		// Modes and points that no longer exist.
		"engine.atpg=hang",
		"route.dial=refuse",
		"route.dial=refuse:1",
		"route.response=reset",
		"persist.write=corrupt",
		"persist.read=error",
		// Budgets belong to error alone.
		"compile=panic:1",
		"compile=error:",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}

func TestParseAcceptsMatrix(t *testing.T) {
	s, err := Parse("compile=error, session=panic,engine.atpg=sleep:1h,encode=sleep:5ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.rules) != 4 {
		t.Errorf("rules = %d, want 4", len(s.rules))
	}
}

func TestFireInactiveIsNil(t *testing.T) {
	// Never-activated processes fire nothing even with a ctx set. This
	// test must run in a fresh process to be meaningful, so only check
	// the unarmed-point fast path when another test already activated.
	if !active.Load() {
		s, _ := Parse("compile=error")
		if err := Fire(WithSet(context.Background(), s), PointCompile); err != nil {
			t.Errorf("inactive Fire returned %v", err)
		}
	}
}

func TestFireModes(t *testing.T) {
	Activate()
	s, err := Parse("compile=error,session=panic,engine.bmc=sleep:1ms,engine.bdd=sleep:1h")
	if err != nil {
		t.Fatal(err)
	}
	ctx := WithSet(context.Background(), s)

	// Unarmed point: nothing.
	if err := Fire(ctx, PointEncode); err != nil {
		t.Errorf("unarmed point fired: %v", err)
	}
	// Error mode returns an attributed InjectedError.
	err = Fire(ctx, PointCompile)
	var inj *InjectedError
	if !errors.As(err, &inj) || inj.Point != PointCompile {
		t.Errorf("error mode returned %v", err)
	}
	// Panic mode panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic mode did not panic")
			}
		}()
		Fire(ctx, PointSession)
	}()
	// Sleep mode returns nil after its duration.
	if err := Fire(ctx, PointEngineBMC); err != nil {
		t.Errorf("sleep mode returned %v", err)
	}
	// A long sleep blocks until cancellation, then returns nil.
	hctx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := Fire(hctx, PointEngineBDD); err != nil {
		t.Errorf("cancelled sleep returned %v", err)
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Error("sleep:1h returned before cancellation")
	}
}

func TestBudgetedRuleDisarms(t *testing.T) {
	Activate()
	s, err := Parse("route.dial=error:2")
	if err != nil {
		t.Fatal(err)
	}
	ctx := WithSet(context.Background(), s)
	for i := 0; i < 2; i++ {
		var inj *InjectedError
		if err := Fire(ctx, PointRouteDial); !errors.As(err, &inj) || inj.Point != PointRouteDial {
			t.Fatalf("fire %d: budgeted rule returned %v", i, err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := Fire(ctx, PointRouteDial); err != nil {
			t.Fatalf("spent rule still fired: %v", err)
		}
	}
	// Budget bounds are validated at parse time.
	for _, spec := range []string{"route.dial=error:0", "route.dial=error:-1", "route.dial=error:x"} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}

func TestGlobalSet(t *testing.T) {
	s, _ := Parse("encode=error")
	SetGlobal(s)
	defer SetGlobal(nil)
	if err := Fire(context.Background(), PointEncode); err == nil {
		t.Error("global rule did not fire")
	}
	// Request-scoped sets shadow per point but unarmed points fall
	// through to the global set.
	rs, _ := Parse("compile=error")
	ctx := WithSet(context.Background(), rs)
	if err := Fire(ctx, PointEncode); err == nil {
		t.Error("global rule did not fire under a request set")
	}
	if err := Fire(ctx, PointCompile); err == nil {
		t.Error("request rule did not fire")
	}
}
