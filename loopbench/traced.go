package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"matchcatcher/internal/blocker"
	"matchcatcher/internal/config"
	"matchcatcher/internal/feature"
	"matchcatcher/internal/ranker"
	"matchcatcher/internal/ssjoin"
	"matchcatcher/internal/telemetry"
)

// span is one benchmark-side span around a call into a layer. Spans of
// one session share the session span's id as their root.
type span struct {
	id, parent, root int
	name             string // "<layer>.<call>"
	start, end       time.Time
	self             time.Duration // set by selfTimes
}

// recorder keeps spans in memory; the Chrome trace is written once, when
// the run ends.
type recorder struct {
	mu    sync.Mutex
	spans []span // spans[id-1]; id 0 means "no parent"
}

func (r *recorder) open(name string, parent int) int {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	root := id
	if parent != 0 {
		root = r.spans[parent-1].root
	}
	r.spans = append(r.spans, span{id: id, parent: parent, root: root, name: name, start: now})
	return id
}

func (r *recorder) close(id int) {
	now := time.Now()
	r.mu.Lock()
	r.spans[id-1].end = now
	r.mu.Unlock()
}

// add records a span measured elsewhere (the handler clock).
func (r *recorder) add(name string, parent int, start, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		id: len(r.spans) + 1, parent: parent, root: r.spans[parent-1].root,
		name: name, start: start, end: end,
	})
}

func (r *recorder) get(id int) span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id-1]
}

// selfTimes sets each span's self time: its duration minus the part of
// its interval that its children cover.
func (r *recorder) selfTimes() {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int][]span{}
	for _, s := range r.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		kids := children[s.id]
		sort.Slice(kids, func(a, b int) bool { return kids[a].start.Before(kids[b].start) })
		covered := time.Duration(0)
		cursor := s.start
		for _, k := range kids {
			lo, hi := k.start, k.end
			if lo.Before(cursor) {
				lo = cursor
			}
			if hi.After(s.end) {
				hi = s.end
			}
			if hi.After(lo) {
				covered += hi.Sub(lo)
				cursor = hi
			}
		}
		s.self = s.end.Sub(s.start) - covered
	}
}

// rootSelfMs returns the self times, in ms, of the session spans opened
// at or after since.
func (r *recorder) rootSelfMs(since time.Time) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.parent == 0 && !s.start.Before(since) {
			out = append(out, float64(s.self.Nanoseconds())/1e6)
		}
	}
	return out
}

// writeChrome writes the spans as a Chrome trace (chrome://tracing,
// Perfetto): one complete event per span, one thread row per session.
func (r *recorder) writeChrome(path string, epoch time.Time) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	r.mu.Lock()
	events := make([]event, 0, len(r.spans))
	for _, s := range r.spans {
		layer := s.name
		for i := range layer {
			if layer[i] == '.' {
				layer = layer[:i]
				break
			}
		}
		events = append(events, event{
			Name: s.name, Cat: layer, Ph: "X",
			Ts:  float64(s.start.Sub(epoch).Nanoseconds()) / 1e3,
			Dur: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.root,
			Args: map[string]any{"id": s.id, "parent": s.parent, "self_us": s.self.Microseconds()},
		})
	}
	r.mu.Unlock()
	raw, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace directory: %w", err)
	}
	return os.WriteFile(path, raw, 0o644)
}

// layerSample is what one traced library composition measured.
type layerSample struct {
	block, generate, corpus, joinAll, prepare time.Duration
	joinCores, joinAllocMB, loopAllocMB       float64
	next, feedback                            []time.Duration
	listed                                    int
}

// tracedComposition runs one session as the public calls core.New makes,
// in its order, with one benchmark span per call under a session span:
// Blocker.Block, config.Generate, ssjoin.NewCorpus, ssjoin.JoinAll,
// feature.NewExtractor + ranker.NewVerifier, then Verifier.Next/Feedback.
// Options and program-side tracing mirror core.New with default options.
func tracedComposition(rec *recorder, w workload, in *inputs, vseed int64) (outcome, layerSample) {
	out := outcome{vseed: vseed}
	var ls layerSample
	q, err := w.blocker()
	if err != nil {
		out.err = err
		return out, ls
	}
	label := labeller(in, vseed)
	root := rec.open("session."+w.name, 0)
	defer rec.close(root)
	timed := func(name string, d *time.Duration, call func()) {
		sp := rec.open(name, root)
		t := time.Now()
		call()
		*d = time.Since(t)
		rec.close(sp)
	}
	start := time.Now()

	var c *blocker.PairSet
	timed("blocker.block", &ls.block, func() { c, err = q.Block(in.a, in.b) })
	if err != nil {
		out.err = err
		return out, ls
	}
	tracer := telemetry.NewTracer(telemetry.Default())
	psess := tracer.Start("debug.session")
	defer psess.End()
	var res *config.Result
	timed("config.generate", &ls.generate, func() { res, err = config.Generate(in.a, in.b, config.Options{}) })
	if err != nil {
		out.err = err
		return out, ls
	}
	var cor *ssjoin.Corpus
	timed("ssjoin.corpus", &ls.corpus, func() { cor = ssjoin.NewCorpus(in.a, in.b, res) })

	jsp := psess.Child("ssjoin.joinall")
	var join *ssjoin.JoinResult
	cpu0, alloc0 := cpuTime(), totalAlloc()
	timed("ssjoin.joinall", &ls.joinAll, func() {
		join = ssjoin.JoinAll(cor, c, ssjoin.Options{Ctx: context.Background(), Trace: jsp})
	})
	ls.joinCores = (cpuTime() - cpu0).Seconds() / ls.joinAll.Seconds()
	ls.joinAllocMB = float64(totalAlloc()-alloc0) / (1 << 20)
	jsp.End()

	vsp := psess.Child("verifier.prepare")
	var verif *ranker.Verifier
	timed("ranker.prepare", &ls.prepare, func() {
		ext := feature.NewExtractor(cor)
		verif = ranker.NewVerifier(join.Lists, ext.Vector, ranker.Options{Seed: vseed, Trace: vsp})
	})
	vsp.End()

	alloc0 = totalAlloc()
	for !verif.Done() {
		it := psess.Child("debug.iteration")
		verif.SetTraceParent(it)
		var d time.Duration
		var pairs []blocker.Pair
		timed("ranker.next", &d, func() { pairs = verif.Next() })
		if out.firstPairs == 0 {
			out.firstPairs = time.Since(start)
		}
		ls.next = append(ls.next, d)
		if len(pairs) == 0 {
			it.End()
			break
		}
		labels := label(pairs)
		var f time.Duration
		timed("ranker.feedback", &f, func() { err = verif.Feedback(labels) })
		it.End()
		verif.SetTraceParent(psess)
		if err != nil {
			out.err = err
			return out, ls
		}
		ls.feedback = append(ls.feedback, f)
		out.iters = append(out.iters, d+f)
		out.shown += len(pairs)
	}
	ls.loopAllocMB = float64(totalAlloc()-alloc0) / (1 << 20)
	out.total = time.Since(start)
	if out.firstPairs == 0 {
		out.firstPairs = out.total
	}
	for _, l := range join.Lists {
		ls.listed += len(l.Pairs)
	}
	out.digest = listsDigest(join.Lists)
	out.matches = sortedPairs(verif.Matches())
	out.eSize = verif.NumCandidates()
	out.cSize = c.Len()
	out.configs = len(join.Lists)
	out.stats = join.Stats
	if err := checkPool(join.Lists, c, in, out.matches); err != nil {
		out.err = err
	}
	return out, ls
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
