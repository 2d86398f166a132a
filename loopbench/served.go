package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"matchcatcher/internal/blocker"
	"matchcatcher/internal/serve"
	"matchcatcher/internal/ssjoin"
)

// reqHeader carries a traced request's span id from the client to the
// handler clock, which pairs client and handler times after the run.
const reqHeader = "X-Loopbench-Span"

// harness hosts one serve.Server with default options on loopback
// listeners: one serves Handler() as is; in traced runs a second serves it
// wrapped in the handler clock.
type harness struct {
	srv     *serve.Server
	servers []*http.Server
	wg      sync.WaitGroup
	plain   string // base URL of the unwrapped handler
	clocked string // base URL of the clocked handler ("" when untraced)
	clock   *handlerClock
	client  *http.Client
	refused atomic.Int64 // non-2xx answers and transport failures
}

func startHarness(traced bool) (*harness, error) {
	h := &harness{
		srv:    serve.New(serve.Options{}),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}},
	}
	var err error
	if h.plain, err = h.listen(h.srv.Handler()); err != nil {
		h.close()
		return nil, err
	}
	if traced {
		h.clock = &handlerClock{spans: map[int]clockSpan{}}
		if h.clocked, err = h.listen(h.clock.wrap(h.srv.Handler())); err != nil {
			h.close()
			return nil, err
		}
	}
	return h, nil
}

func (h *harness) listen(handler http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("loopback listener: %w", err)
	}
	hs := &http.Server{Handler: handler}
	h.servers = append(h.servers, hs)
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return "http://" + ln.Addr().String(), nil
}

// close drains the listeners and the server the way mcserve does:
// BeginShutdown, http.Server.Shutdown, then Close.
func (h *harness) close() {
	h.srv.BeginShutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, hs := range h.servers {
		_ = hs.Shutdown(ctx) // a timeout leaves Serve to return on Close below
		_ = hs.Close()
	}
	h.wg.Wait()
	h.srv.Close()
	h.client.CloseIdleConnections()
}

// clockSpan is one handler invocation as the wrapping middleware saw it.
type clockSpan struct {
	start, end time.Time
}

// handlerClock records the wall time Server.Handler() spends on each
// traced request, keyed by the client's span id.
type handlerClock struct {
	mu    sync.Mutex
	spans map[int]clockSpan
}

func (c *handlerClock) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		end := time.Now()
		id, err := strconv.Atoi(r.Header.Get(reqHeader))
		if err != nil {
			return
		}
		c.mu.Lock()
		c.spans[id] = clockSpan{start: start, end: end}
		c.mu.Unlock()
	})
}

func (c *handlerClock) lookup(id int) (clockSpan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.spans[id]
	return s, ok
}

// servedReport is the part of the canonical report the checks read.
type servedReport struct {
	Matches []struct {
		A int `json:"a_row"`
		B int `json:"b_row"`
	} `json:"matches"`
	ESize     int          `json:"e_size"`
	CSize     int          `json:"candidate_set_size"`
	Configs   int          `json:"configs"`
	JoinStats ssjoin.Stats `json:"join_stats"`
}

// httpSession is one client's conversation with the server. With a
// recorder it opens a span per request under the session span and sends
// the span id to the handler clock.
type httpSession struct {
	h       *harness
	base    string
	rec     *recorder
	span    int // session span (0 when untraced)
	reqSpan []int
}

func (s *httpSession) do(route, method, path string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	sp := 0
	if s.rec != nil {
		sp = s.rec.open("client."+route, s.span)
		req.Header.Set(reqHeader, strconv.Itoa(sp))
		s.reqSpan = append(s.reqSpan, sp)
	}
	resp, err := s.h.client.Do(req)
	var out []byte
	if err == nil {
		out, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	if s.rec != nil {
		s.rec.close(sp)
	}
	if err != nil {
		s.h.refused.Add(1)
		return nil, fmt.Errorf("%s: %w", route, err)
	}
	if resp.StatusCode != want {
		s.h.refused.Add(1)
		return nil, fmt.Errorf("%s: status %d: %s", route, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

func (s *httpSession) doJSON(route, method, path string, body any, want int, into any) error {
	var raw []byte
	if body != nil {
		var err error
		if raw, err = json.Marshal(body); err != nil {
			return err
		}
	}
	out, err := s.do(route, method, path, raw, want)
	if err != nil || into == nil {
		return err
	}
	if err := json.Unmarshal(out, into); err != nil {
		return fmt.Errorf("%s: decoding response: %w", route, err)
	}
	return nil
}

// servedSession drives one whole session over HTTP: create, upload both
// tables, set the blocker, join, next/labels until done, finish, fetch
// the canonical report, delete. fault replaces the blocker with a
// malformed rule, which the server refuses.
func servedSession(s *httpSession, w workload, in *inputs, vseed int64, fault bool) outcome {
	out := outcome{vseed: vseed}
	label := labeller(in, vseed)
	start := time.Now()
	var created struct {
		ID string `json:"id"`
	}
	if err := s.doJSON("sessions_create", "POST", "/v1/sessions",
		map[string]int64{"seed": vseed}, http.StatusCreated, &created); err != nil {
		out.err = err
		return out
	}
	path := "/v1/sessions/" + created.ID
	err := s.drive(path, w, in, label, fault, start, &out)
	if _, derr := s.do("session_delete", "DELETE", path, nil, http.StatusNoContent); err == nil {
		err = derr
	}
	out.total = time.Since(start)
	out.err = err
	return out
}

func (s *httpSession) drive(path string, w workload, in *inputs, label func([]blocker.Pair) []bool, fault bool, start time.Time, out *outcome) error {
	if _, err := s.do("tables_put", "PUT", path+"/tables/a?name="+in.a.Name(), in.csvA, http.StatusOK); err != nil {
		return err
	}
	if _, err := s.do("tables_put", "PUT", path+"/tables/b?name="+in.b.Name(), in.csvB, http.StatusOK); err != nil {
		return err
	}
	rule := map[string][]string{"drops": {w.rule}}
	if w.keep {
		rule = map[string][]string{"keeps": {w.rule}}
	}
	if fault {
		rule = map[string][]string{"drops": {w.rule + " <"}}
	}
	if err := s.doJSON("blocker_set", "POST", path+"/blocker", rule, http.StatusOK, nil); err != nil {
		return err
	}
	if err := s.doJSON("join", "POST", path+"/join", nil, http.StatusOK, nil); err != nil {
		return err
	}
	for done := false; !done; {
		var batch struct {
			Pairs []blocker.Pair `json:"pairs"`
			Done  bool           `json:"done"`
		}
		t := time.Now()
		if err := s.doJSON("next", "POST", path+"/next", nil, http.StatusOK, &batch); err != nil {
			return err
		}
		next := time.Since(t)
		if out.firstPairs == 0 {
			out.firstPairs = time.Since(start)
		}
		if batch.Done || len(batch.Pairs) == 0 {
			break
		}
		labels := label(batch.Pairs)
		var fed struct {
			Done bool `json:"done"`
		}
		t = time.Now()
		if err := s.doJSON("labels", "POST", path+"/labels", map[string][]bool{"labels": labels}, http.StatusOK, &fed); err != nil {
			return err
		}
		out.iters = append(out.iters, next+time.Since(t))
		out.shown += len(batch.Pairs)
		done = fed.Done
	}
	if err := s.doJSON("finish", "POST", path+"/finish", nil, http.StatusOK, nil); err != nil {
		return err
	}
	raw, err := s.do("report", "GET", path+"/report", nil, http.StatusOK)
	if err != nil {
		return err
	}
	var rep servedReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	for _, m := range rep.Matches {
		out.matches = append(out.matches, blocker.Pair{A: m.A, B: m.B})
	}
	out.matches = sortedPairs(out.matches)
	out.eSize, out.cSize, out.configs, out.stats = rep.ESize, rep.CSize, rep.Configs, rep.JoinStats
	out.digest, err = reportDigest(raw)
	return err
}

// reportDigest hashes the canonical report without join_stats, whose
// counters depend on join scheduling when more than one core is used.
func reportDigest(raw []byte) (string, error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		return "", fmt.Errorf("report: %w", err)
	}
	delete(m, "join_stats")
	canon, err := json.Marshal(m)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:]), nil
}
