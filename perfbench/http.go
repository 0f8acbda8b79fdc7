package main

import (
	"io"
	"net/http"
	"net/url"
	"time"
)

// bodyReader is a reusable request body over pre-generated bytes.
type bodyReader struct {
	b   []byte
	off int
}

func (r *bodyReader) Read(p []byte) (int, error) {
	if r.off >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.off:])
	r.off += n
	return n, nil
}

func (r *bodyReader) Close() error { return nil }

// recorder is a reusable in-memory http.ResponseWriter.
type recorder struct {
	hdr    http.Header
	status int
	buf    []byte
}

func (w *recorder) Header() http.Header { return w.hdr }

func (w *recorder) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *recorder) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// client calls an http.Handler in-process: no sockets, so the measured
// time is the handler's own work. One client belongs to one goroutine.
//
// With a timeline, the client also records the caller's spans: one around
// each ServeHTTP call and harness spans covering everything in between, so
// that the caller's wall time is tiled by spans.
type client struct {
	h    http.Handler
	urls map[string]*url.URL
	body bodyReader
	rec  recorder

	tl      *timeline
	harness span
}

func newClient(h http.Handler, tl *timeline) *client {
	c := &client{h: h, urls: map[string]*url.URL{}, rec: recorder{hdr: http.Header{}}, tl: tl}
	for _, p := range []string{"/estimate", "/bound", "/place", "/complete", "/observe"} {
		c.urls[p] = &url.URL{Path: p}
	}
	return c
}

// start opens the caller's first harness span; stop closes the last one.
func (c *client) start() {
	if c.tl != nil {
		c.harness = c.tl.begin(kHarness)
	}
}

func (c *client) stop() {
	if c.tl != nil {
		c.tl.end(c.harness)
	}
}

// post serves one POST through the handler and returns the status, the
// reply body (valid until the next call) and the ServeHTTP time.
func (c *client) post(path string, body []byte) (int, []byte, time.Duration) {
	c.body = bodyReader{b: body}
	c.rec.status = 0
	c.rec.buf = c.rec.buf[:0]
	clear(c.rec.hdr)
	req := &http.Request{
		Method:        http.MethodPost,
		URL:           c.urls[path],
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{},
		Body:          &c.body,
		ContentLength: int64(len(body)),
		Host:          "perfbench",
		RequestURI:    path,
	}
	var sp span
	if c.tl != nil {
		c.tl.end(c.harness)
		sp = c.tl.begin(kServe)
	}
	t0 := time.Now()
	c.h.ServeHTTP(&c.rec, req)
	d := time.Since(t0)
	if c.tl != nil {
		c.tl.end(sp)
		c.harness = c.tl.begin(kHarness)
	}
	if c.rec.status == 0 {
		c.rec.status = http.StatusOK
	}
	return c.rec.status, c.rec.buf, d
}
