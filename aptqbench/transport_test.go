package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/infer"
	"repro/internal/model"
	"repro/internal/router"
	"repro/internal/serve"
)

const testTimeout = 5 * time.Second

func newTestTransport(h http.Handler) *memTransport {
	return &memTransport{replicas: map[string]http.Handler{"replica-0": h}, tg: &tracing{}}
}

// The handler writes its second event only after the client has read the
// first: a transport that held writes back until the handler returned
// would deadlock here.
func TestMemTransportStreamsIncrementally(t *testing.T) {
	firstRead := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "data: 1\n\n")
		w.(http.Flusher).Flush()
		select {
		case <-firstRead:
		case <-time.After(testTimeout):
			return
		}
		fmt.Fprint(w, "data: 2\n\n")
	})
	tp := newTestTransport(h)
	defer tp.wait()
	resp, err := (&http.Client{Transport: tp}).Get("http://replica-0/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var lines []string
	for sc.Scan() {
		if sc.Text() == "" {
			continue
		}
		lines = append(lines, sc.Text())
		if len(lines) == 1 {
			close(firstRead)
		}
	}
	if strings.Join(lines, ",") != "data: 1,data: 2" {
		t.Fatalf("read %q", lines)
	}
}

func TestMemTransportPropagatesCancellation(t *testing.T) {
	for _, how := range []string{"cancel request", "close body"} {
		t.Run(how, func(t *testing.T) {
			handlerDone := make(chan error, 1)
			h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(http.StatusOK)
				select {
				case <-r.Context().Done():
					handlerDone <- nil
				case <-time.After(testTimeout):
					handlerDone <- fmt.Errorf("handler context never cancelled")
				}
			})
			tp := newTestTransport(h)
			defer tp.wait()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "http://replica-0/", nil)
			resp, err := tp.RoundTrip(req)
			if err != nil {
				t.Fatal(err)
			}
			if how == "cancel request" {
				cancel()
			} else {
				resp.Body.Close()
			}
			if err := <-handlerDone; err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		})
	}
}

// Writes do not wait for the reader; the reader drains them in order and
// then sees EOF, and after the reader hangs up writes fail.
func TestStreamPipe(t *testing.T) {
	p := newStreamPipe()
	for _, s := range []string{"data: 1\n\n", "data: 2\n\n"} {
		if _, err := p.write([]byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	p.closeWrite()
	got, err := io.ReadAll(readerFunc(p.read))
	if err != nil || string(got) != "data: 1\n\ndata: 2\n\n" {
		t.Fatalf("read %q, %v", got, err)
	}
	q := newStreamPipe()
	q.closeRead()
	if _, err := q.write([]byte("x")); err != io.ErrClosedPipe {
		t.Fatalf("write after hang-up: %v", err)
	}
}

type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(b []byte) (int, error) { return f(b) }

func TestMemTransportUnknownReplica(t *testing.T) {
	tp := newTestTransport(http.NotFoundHandler())
	req, _ := http.NewRequest(http.MethodGet, "http://replica-9/", nil)
	if _, err := tp.RoundTrip(req); err == nil {
		t.Fatal("no error for an unknown replica")
	}
}

// A streamed reply through the real router and two replicas over the
// in-memory transport is complete, consistent and equal to Sequential,
// and the trace links router, transport and replica spans.
func TestRouterOverMemTransportMatchesSequential(t *testing.T) {
	m := model.New(model.Tiny(), 1)
	opts := serve.Options{Slots: 2, EOS: -1, PrefillChunk: infer.DefaultPrefillChunk}
	tg := &tracing{}
	tr := newTracer()
	tg.p.Store(tr)
	tp := &memTransport{replicas: map[string]http.Handler{}, tg: tg, aff: newAffinity(4)}
	var urls []string
	for i := 0; i < 2; i++ {
		srv := serve.NewServer(m, opts)
		defer srv.Close()
		host := fmt.Sprintf("replica-%d", i)
		tp.replicas[host] = tg.handler("replica.ServeHTTP", srv.Handler())
		urls = append(urls, "http://"+host)
	}
	rt, err := router.New(router.Options{Replicas: urls, Transport: tp})
	if err != nil {
		t.Fatal(err)
	}
	defer tp.wait()
	defer rt.Close()
	c := &client{h: tg.handler("router.ServeHTTP", rt.Handler()), tg: tg}

	req := serve.Request{Prompt: []int{1, 2, 3, 4, 5}, MaxTokens: 6, Temperature: 0.8, Seed: 9}
	body, _ := json.Marshal(serve.GenerateRequest{Tokens: req.Prompt, MaxTokens: req.MaxTokens, Temperature: req.Temperature, Seed: req.Seed, Stream: true})
	for i := 0; i < 2; i++ {
		rep := &reply{}
		c.send(context.Background(), int64(i+1), body, rep)
		if d := rep.streamDefect(req.MaxTokens); d != "" {
			t.Fatal(d)
		}
		if want := serve.Sequential(m, req, opts).Tokens; !equalInts(rep.final.Tokens, want) {
			t.Fatalf("served %v, Sequential %v", rep.final.Tokens, want)
		}
	}
	if got := tp.aff.share(); got != 1 {
		t.Errorf("affinity share %v: a repeated prefix went to another replica", got)
	}
	byID := map[int64]span{}
	for _, s := range tr.snapshot() {
		byID[s.ID] = s
	}
	chains := 0
	for _, s := range byID {
		if s.Name != "replica.ServeHTTP" || s.Req == 0 {
			continue
		}
		rtSpan, rtr, cl := byID[s.Parent], byID[byID[s.Parent].Parent], byID[byID[byID[s.Parent].Parent].Parent]
		if rtSpan.Name != "transport.RoundTrip" || rtr.Name != "router.ServeHTTP" || cl.Name != "client.request" || cl.Req != s.Req {
			t.Fatalf("replica span chain %q <- %q <- %q (req %d vs %d)", rtSpan.Name, rtr.Name, cl.Name, cl.Req, s.Req)
		}
		chains++
	}
	if chains != 2 {
		t.Fatalf("%d client->router->transport->replica chains, want 2", chains)
	}
}
