package main

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Headers that carry a request's trace across the loopback hops. The
// client sets them on the router request; the router's sub-requests
// get them from spanTransport, which reads the router span from the
// sub-request's context (inherited from the incoming request).
const (
	hdrTrace  = "X-Bench-Trace"
	hdrParent = "X-Bench-Parent"
	hdrClass  = "X-Bench-Class"
)

// serveObserver wraps the public HTTP surfaces of the fleet — each
// replica's Server.Handler(), the Router.Handler() and the router's
// sub-request client — and records spans and per-layer timings.
type serveObserver struct {
	tr *tracer

	mu         sync.Mutex
	handlerMs  map[string][]float64 // replica handler wall, by class
	overheadMs []float64            // router wall minus slowest sub-request
	routed     int                  // router requests
	subreqs    int
}

func newServeObserver(tr *tracer) *serveObserver {
	return &serveObserver{tr: tr, handlerMs: map[string][]float64{}}
}

// reset drops what was observed so far (the warm-up).
func (o *serveObserver) reset() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.handlerMs = map[string][]float64{}
	o.overheadMs = nil
	o.routed, o.subreqs = 0, 0
}

// replica wraps one replica's handler.
func (o *serveObserver) replica(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		if r.URL.Path != "/v1/check" {
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(hdrParent), 10, 64)
		o.tr.record(r.Header.Get(hdrTrace), o.tr.newID(), parent, "service.handler", start, end)
		o.mu.Lock()
		class := r.Header.Get(hdrClass)
		o.handlerMs[class] = append(o.handlerMs[class], ms(end.Sub(start)))
		o.mu.Unlock()
	})
}

type routerSpanKey struct{}

// routerSpan is one router request in flight; its sub-requests report
// their round trips into it.
type routerSpan struct {
	trace, class string
	id           int64
	mu           sync.Mutex
	maxRTT       time.Duration
	n            int
}

// routerMW wraps the router's handler.
func (o *serveObserver) routerMW(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/check" {
			h.ServeHTTP(w, r)
			return
		}
		rs := &routerSpan{trace: r.Header.Get(hdrTrace), class: r.Header.Get(hdrClass), id: o.tr.newID()}
		parent, _ := strconv.ParseInt(r.Header.Get(hdrParent), 10, 64)
		start := time.Now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), routerSpanKey{}, rs)))
		end := time.Now()
		o.tr.record(rs.trace, rs.id, parent, "router.handler", start, end)
		rs.mu.Lock()
		defer rs.mu.Unlock()
		o.mu.Lock()
		defer o.mu.Unlock()
		o.routed++
		o.subreqs += rs.n
		if rs.n > 0 {
			o.overheadMs = append(o.overheadMs, ms(end.Sub(start)-rs.maxRTT))
		}
	})
}

// spanTransport is the router's sub-request RoundTripper. A round trip
// ends when the router closes the response body.
type spanTransport struct {
	base http.RoundTripper
	obs  *serveObserver
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rs, ok := req.Context().Value(routerSpanKey{}).(*routerSpan)
	if !ok {
		return t.base.RoundTrip(req) // health polls
	}
	id := t.obs.tr.newID()
	req = req.Clone(req.Context())
	req.Header.Set(hdrTrace, rs.trace)
	req.Header.Set(hdrParent, strconv.FormatInt(id, 10))
	req.Header.Set(hdrClass, rs.class)
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	finish := func() {
		end := time.Now()
		t.obs.tr.record(rs.trace, id, rs.id, "router.subrequest", start, end)
		rs.mu.Lock()
		rs.n++
		rs.maxRTT = max(rs.maxRTT, end.Sub(start))
		rs.mu.Unlock()
	}
	if err != nil {
		finish()
		return nil, err
	}
	resp.Body = &closeHook{ReadCloser: resp.Body, onClose: finish}
	return resp, nil
}

// closeHook runs onClose once, when the body is first closed.
type closeHook struct {
	io.ReadCloser
	once    sync.Once
	onClose func()
}

func (c *closeHook) Close() error {
	err := c.ReadCloser.Close()
	c.once.Do(c.onClose)
	return err
}
