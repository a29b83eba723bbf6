package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
)

// memTransport is the router's upstream transport: it serves each request
// by calling the addressed replica's handler in-process, streaming the
// handler's output back through a buffered pipe. Headers are returned as
// soon as the handler writes its status line, body bytes as soon as it
// writes them, and closing the response body or cancelling the request
// cancels the handler's context, as closing a TCP connection would.
type memTransport struct {
	replicas map[string]http.Handler // by URL host
	tg       *tracing
	aff      *affinity // nil: no affinity accounting
	wg       sync.WaitGroup
}

func (t *memTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := t.replicas[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("memtransport: no replica %q", req.URL.Host)
	}
	var body []byte
	if req.Body != nil {
		var err error
		body, err = io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("memtransport: read request body: %w", err)
		}
	}
	ctx, end := t.tg.start(req.Context(), "transport.RoundTrip")
	sctx, cancel := context.WithCancel(ctx)
	sreq := req.Clone(sctx)
	sreq.Body = io.NopCloser(bytes.NewReader(body))
	sreq.ContentLength = int64(len(body))
	sreq.RequestURI = req.URL.RequestURI()

	pipe := newStreamPipe()
	w := &pipeWriter{header: http.Header{}, pipe: pipe, ready: make(chan struct{})}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		h.ServeHTTP(w, sreq)
		w.WriteHeader(http.StatusOK) // no-op unless the handler wrote nothing
		pipe.closeWrite()
		cancel()
	}()
	select {
	case <-w.ready:
	case <-req.Context().Done():
		pipe.closeRead()
		cancel()
		end()
		return nil, req.Context().Err()
	}
	if t.aff != nil && req.URL.Path == "/v1/generate" && w.code == http.StatusOK {
		t.aff.observe(body, req.URL.Host)
	}
	return &http.Response{
		Status:        fmt.Sprintf("%d %s", w.code, http.StatusText(w.code)),
		StatusCode:    w.code,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        w.sent,
		Body:          &pipeBody{pipe: pipe, cancel: cancel, end: end},
		ContentLength: -1,
		Request:       req,
	}, nil
}

// wait blocks until every handler the transport started has returned.
func (t *memTransport) wait() { t.wg.Wait() }

// pipeWriter is the replica-side ResponseWriter.
type pipeWriter struct {
	header http.Header
	pipe   *streamPipe
	once   sync.Once
	ready  chan struct{} // closed once code and sent are set
	code   int
	sent   http.Header
}

func (w *pipeWriter) Header() http.Header { return w.header }

func (w *pipeWriter) WriteHeader(code int) {
	w.once.Do(func() {
		w.code, w.sent = code, w.header.Clone()
		close(w.ready)
	})
}

// Write hands the bytes to the client at once; after the client closes
// the body it fails with io.ErrClosedPipe.
func (w *pipeWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.pipe.write(p)
}

// Flush only commits the status line: writes are never held back.
func (w *pipeWriter) Flush() { w.WriteHeader(http.StatusOK) }

// pipeBody is the client side of the response: closing it hangs up on
// the handler and ends the RoundTrip span.
type pipeBody struct {
	pipe   *streamPipe
	cancel context.CancelFunc
	end    func()
}

func (b *pipeBody) Read(p []byte) (int, error) { return b.pipe.read(p) }

func (b *pipeBody) Close() error {
	b.pipe.closeRead()
	b.cancel()
	b.end()
	return nil
}

// streamPipe carries one response body from the replica handler to the
// router. Like a socket's send buffer, a write never waits for the
// reader: it appends to the buffer and wakes the reader, so the handler
// goes on to its next token without a hand-off to the router's goroutine.
type streamPipe struct {
	mu      sync.Mutex
	buf     []byte
	off     int           // read position in buf
	wclosed bool          // the handler returned: EOF once buf is drained
	rclosed bool          // the client hung up: writes fail
	wake    chan struct{} // capacity 1: data, EOF or hang-up since the reader last looked
}

func newStreamPipe() *streamPipe { return &streamPipe{wake: make(chan struct{}, 1)} }

func (p *streamPipe) notify() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

func (p *streamPipe) write(b []byte) (int, error) {
	p.mu.Lock()
	if p.rclosed {
		p.mu.Unlock()
		return 0, io.ErrClosedPipe
	}
	p.buf = append(p.buf, b...)
	p.mu.Unlock()
	p.notify()
	return len(b), nil
}

// read blocks until there are bytes to return, the writer has closed
// (io.EOF) or the reader has (io.ErrClosedPipe). It serves one reader.
func (p *streamPipe) read(b []byte) (int, error) {
	for {
		p.mu.Lock()
		switch {
		case p.rclosed:
			p.mu.Unlock()
			return 0, io.ErrClosedPipe
		case p.off < len(p.buf):
			n := copy(b, p.buf[p.off:])
			p.off += n
			if p.off == len(p.buf) {
				p.buf, p.off = p.buf[:0], 0
			}
			p.mu.Unlock()
			return n, nil
		case p.wclosed:
			p.mu.Unlock()
			return 0, io.EOF
		}
		p.mu.Unlock()
		<-p.wake
	}
}

func (p *streamPipe) closeWrite() {
	p.mu.Lock()
	p.wclosed = true
	p.mu.Unlock()
	p.notify()
}

func (p *streamPipe) closeRead() {
	p.mu.Lock()
	p.rclosed, p.buf = true, nil
	p.mu.Unlock()
	p.notify()
}

// affinity counts, for requests whose shared prefix was seen before, how
// many went to the replica that served that prefix last time.
type affinity struct {
	prefixLen int
	mu        sync.Mutex
	last      map[string]string // prefix key -> replica host
	repeat    int64             // admitted requests with a previously seen prefix
	same      int64             // of those, sent to the prefix's last replica
}

func newAffinity(prefixLen int) *affinity {
	return &affinity{prefixLen: prefixLen, last: map[string]string{}}
}

func (a *affinity) observe(body []byte, host string) {
	var req struct {
		Tokens []int `json:"tokens"`
	}
	if json.Unmarshal(body, &req) != nil || len(req.Tokens) < a.prefixLen {
		return
	}
	key := fmt.Sprint(req.Tokens[:a.prefixLen])
	a.mu.Lock()
	defer a.mu.Unlock()
	if prev, ok := a.last[key]; ok {
		a.repeat++
		if prev == host {
			a.same++
		}
	}
	a.last[key] = host
}

// reset clears the counts but keeps the prefix -> replica map.
func (a *affinity) reset() {
	a.mu.Lock()
	a.repeat, a.same = 0, 0
	a.mu.Unlock()
}

func (a *affinity) share() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return share(float64(a.same), float64(a.repeat))
}
