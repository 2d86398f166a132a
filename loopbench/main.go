// Command loopbench is the repository benchmark: it measures the latency
// of MatchCatcher's interactive debugging loop (blocker output, config
// tree, joint top-k joins, verifier rounds) on three workloads, through
// the library entry points or the HTTP session API, with default options.
//
// Run it from the repository root with loopbench/run.sh, which builds it:
//
//	bash loopbench/run.sh --workload ag_verify --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// per-layer run and writes a Chrome trace. The last line of standard
// output is the result object; the line before it fingerprints the run.
// The exit code is non-zero when any output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

type runConfig struct {
	w        workload
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	// faultAt makes the faultAt-th timed session of an untraced served run
	// send a malformed blocker rule (0: none); the tests use it to check
	// that a refused session lowers ok_frac instead of ending the run.
	faultAt int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	start := time.Now()
	name := flag.String("workload", "", "workload: m2_join, ag_verify or wa_serve")
	seed := flag.Int64("seed", 1, "workload seed (inputs, verifier and synthetic user)")
	secs := flag.Float64("seconds", 30, "length of the measured window")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	traceOut := flag.String("trace-out", "", "Chrome trace file of the traced run (default .bench_build/loopbench-<workload>-<seed>.trace.json)")
	flag.Parse()
	w, ok := lookupWorkload(*name)
	if !ok || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "loopbench: want --workload m2_join|ag_verify|wa_serve, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	cfg := runConfig{w: w, seed: *seed, seconds: *secs, trace: *trace == 1, traceOut: *traceOut}
	if cfg.trace && cfg.traceOut == "" {
		cfg.traceOut = fmt.Sprintf(".bench_build/loopbench-%s-%d.trace.json", w.name, *seed)
	}
	res, info, err := execute(cfg, start)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loopbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"run": info}); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// bench is one run's state.
type bench struct {
	cfg       runConfig
	in        *inputs
	ref       *reference
	h         *harness
	setupS    float64
	readCSVMs float64
	sessions  atomic.Int64 // sessions started, numbering them for verifier seeds

	mu        sync.Mutex
	attempted int
	failures  []string
	metrics   map[string]metric
	info      map[string]any
}

// setupReps is how many times set-up generates, encodes and parses the
// inputs; setup_s counts the median repetition once.
const setupReps = 3

// execute sets up, runs the measured window and returns the result. An
// error means set-up or a warm-up session failed, so nothing could be
// measured.
func execute(cfg runConfig, start time.Time) (result, map[string]any, error) {
	b := &bench{cfg: cfg, metrics: map[string]metric{}, info: fingerprint(cfg.w.name, cfg.seed)}
	err := b.setup(start)
	if b.h != nil {
		defer b.h.close()
	}
	if err != nil {
		return result{}, nil, err
	}
	if cfg.trace {
		err = b.traced()
	} else {
		b.untraced()
	}
	if err != nil {
		return result{}, nil, err
	}
	failed := len(b.failures)
	if len(b.failures) > 5 {
		b.failures = b.failures[:5]
	}
	b.info["failures"] = b.failures
	return result{
		Correct:   failed == 0,
		Attempted: b.attempted,
		Failed:    failed,
		Metrics:   b.metrics,
	}, b.info, nil
}

func (b *bench) put(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// setup builds the inputs setupReps times and runs the untimed warm-up
// library session that yields the checks' reference. For served
// workloads it also runs a library session for every other verifier seed,
// so served sessions are checked against the library path, then starts
// the server and runs a warm-up served session; traced runs of library
// workloads start the server too.
func (b *bench) setup(start time.Time) error {
	w, seed := b.cfg.w, b.cfg.seed
	var reps, reads []float64
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		in, err := prepare(w, seed)
		if err != nil {
			return fmt.Errorf("inputs: %w", err)
		}
		reps = append(reps, time.Since(t).Seconds())
		reads = append(reads, in.readCSV.Seconds()*1e3)
		b.in = in
	}
	ref, err := newReference(w, b.in, verifierSeed(seed, 0))
	if err != nil {
		return err
	}
	b.ref = ref
	if w.served {
		for i := 1; i < verifierSeedsPerRun; i++ {
			out, _, _ := librarySession(w, b.in, verifierSeed(seed, i))
			if err := ref.check(out); err != nil {
				return fmt.Errorf("library reference session: %w", err)
			}
		}
	}
	if w.served || b.cfg.trace {
		if b.h, err = startHarness(b.cfg.trace); err != nil {
			return err
		}
	}
	if w.served {
		out := servedSession(&httpSession{h: b.h, base: b.h.plain}, w, b.in, verifierSeed(seed, 0), false)
		if err := ref.checkServed(out, b.in); err != nil {
			return fmt.Errorf("warm-up served session: %w", err)
		}
	}
	total := 0.0
	for _, r := range reps {
		total += r
	}
	b.setupS = time.Since(start).Seconds() - total + median(reps)
	b.readCSVMs = median(reads)
	b.info["setup_reps_s"] = reps
	b.info["reference"] = map[string]any{
		"lists_digest": ref.digest, "c_size": ref.cSize, "e_size": ref.eSize, "configs": ref.configs,
		"matches_in_e": ref.inE, "killed_matches": ref.killed,
	}
	return nil
}

// next numbers a new session; it returns the number and the session's
// verifier seed.
func (b *bench) next() (int, int64) {
	i := int(b.sessions.Add(1) - 1)
	return i, verifierSeed(b.cfg.seed, i)
}

// record counts a finished session; it reports whether it passed.
func (b *bench) record(out outcome) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if out.err != nil {
		b.failures = append(b.failures, out.err.Error())
		return false
	}
	return true
}

// closedLoop runs sessions on closed-loop clients: each starts its next
// session when the previous one returns, after a pause drawn uniformly
// from [0, maxGap), while a session as long as its last one still ends by
// the deadline, and runs at least minEach. Past the deadline it goes on up
// to the hard deadline while enough reports false. The pauses are drawn
// from seed, so a run's schedule repeats.
func closedLoop(clients, minEach int, seed int64, maxGap time.Duration, deadline, hard time.Time, enough func() bool, session func(client, i int)) {
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*int64(clients) + int64(k)))
			var last time.Duration
			for i := 0; ; i++ {
				var gap time.Duration
				if maxGap > 0 {
					gap = time.Duration(rng.Int63n(int64(maxGap)))
				}
				end := time.Now().Add(gap + last)
				if i >= minEach && !end.Before(deadline) && (enough() || !end.Before(hard)) {
					return
				}
				time.Sleep(gap)
				t := time.Now()
				session(k, i)
				last = time.Since(t)
			}
		}(k)
	}
	wg.Wait()
}

func (w workload) clientCount() int {
	if w.clients > 0 {
		return w.clients
	}
	return 1
}

// window returns the measured window's deadline and the hard deadline a
// run may extend to for samples: twice the window.
func (b *bench) window(t0 time.Time) (time.Time, time.Time) {
	d := time.Duration(b.cfg.seconds * float64(time.Second))
	return t0.Add(d), t0.Add(2 * d)
}

// session runs one untraced session on the workload's own path and
// checks it.
func (b *bench) session(vseed int64, fault bool) outcome {
	if b.cfg.w.served {
		out := servedSession(&httpSession{h: b.h, base: b.h.plain}, b.cfg.w, b.in, vseed, fault)
		out.err = b.ref.checkServed(out, b.in)
		return out
	}
	out, _, _ := librarySession(b.cfg.w, b.in, vseed)
	out.err = b.ref.check(out)
	return out
}

// untraced is the end-to-end run: closed-loop sessions on the
// workload's own path for the measured window.
func (b *bench) untraced() {
	w := b.cfg.w
	var (
		mu      sync.Mutex
		ok      []outcome
		iters   []time.Duration
		lastEnd time.Time
	)
	enough := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(iterMetrics(iters)) == 2
	}
	t0 := time.Now()
	deadline, hard := b.window(t0)
	closedLoop(w.clientCount(), 1, b.cfg.seed, w.maxGap, deadline, hard, enough, func(int, int) {
		i, vseed := b.next()
		out := b.session(vseed, b.cfg.faultAt == i+1)
		passed := b.record(out)
		mu.Lock()
		defer mu.Unlock()
		if passed {
			ok = append(ok, out)
			iters = append(iters, out.iters...)
		}
		lastEnd = time.Now()
	})
	window := lastEnd.Sub(t0)

	var first, total, shares []float64
	for _, o := range ok {
		first = append(first, o.firstPairs.Seconds())
		total = append(total, o.total.Seconds())
		if b.ref.inE > 0 {
			shares = append(shares, float64(len(o.matches))/float64(b.ref.inE))
		}
	}
	b.put("setup_s", "s", b.setupS)
	b.put("first_pairs_s", "s", median(first))
	for name, v := range iterMetrics(iters) {
		b.put(name, "ms", v)
	}
	b.put("session_s", "s", median(total))
	if len(ok) > 0 {
		b.put("sessions_per_min", "1/min", float64(len(ok))/window.Minutes())
	}
	b.put("matches_found_share", "ratio", median(shares))
	if b.ref.killed > 0 {
		b.put("matches_in_e_share", "ratio", float64(b.ref.inE)/float64(b.ref.killed))
	}
	b.put("peak_rss_mb", "MB", peakRSSMB())
	b.put("ok_frac", "ratio", float64(len(ok))/float64(b.attempted))
	b.info["samples"] = map[string]any{
		"sessions": len(ok), "iterations": len(iters), "window_s": window.Seconds(),
	}
}

// traced is the per-layer run. It first runs the other path on the same
// inputs (one served session for library workloads, three traced
// compositions for the served one) so every layer is measured, then
// alternates traced and untraced sessions on the workload's own path for
// the measured window; trace.overhead compares the two.
func (b *bench) traced() error {
	w, in := b.cfg.w, b.in
	rec := &recorder{}
	epoch := time.Now()
	layers := &layerPool{}
	var reqSpans []int
	var mu sync.Mutex
	tracedServed := func(vseed int64) outcome {
		root := rec.open("session."+w.name, 0)
		s := &httpSession{h: b.h, base: b.h.clocked, rec: rec, span: root}
		out := servedSession(s, w, in, vseed, false)
		rec.close(root)
		out.err = b.ref.checkServed(out, in)
		mu.Lock()
		reqSpans = append(reqSpans, s.reqSpan...)
		mu.Unlock()
		b.record(out)
		return out
	}
	tracedLibrary := func(vseed int64) outcome {
		out, ls := tracedComposition(rec, w, in, vseed)
		out.err = b.ref.check(out)
		if b.record(out) {
			layers.add(ls, out)
		}
		return out
	}

	if w.served {
		for i := 0; i < 3; i++ {
			tracedLibrary(verifierSeed(b.cfg.seed, i))
		}
	} else {
		tracedServed(verifierSeed(b.cfg.seed, 0))
	}

	var plain, clocked []float64
	var primary []outcome
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	sessions := 0
	t0 := time.Now()
	deadline, hard := b.window(t0)
	closedLoop(w.clientCount(), 2, b.cfg.seed, w.maxGap, deadline, hard, func() bool { return true }, func(k, i int) {
		// Each client runs a traced and an untraced session per verifier
		// seed, so both sides see the same learning trajectories.
		traced := (i+k)%2 == 0
		vseed := verifierSeed(b.cfg.seed, k*verifierSeedsPerRun/2+i/2)
		var out outcome
		switch {
		case traced && w.served:
			out = tracedServed(vseed)
		case traced:
			out = tracedLibrary(vseed)
		default:
			out = b.session(vseed, false)
			b.record(out)
		}
		mu.Lock()
		defer mu.Unlock()
		sessions++
		if out.err != nil {
			return
		}
		primary = append(primary, out)
		if traced {
			clocked = append(clocked, out.total.Seconds())
		} else {
			plain = append(plain, out.total.Seconds())
		}
	})
	runtime.ReadMemStats(&ms1)

	// Pair each traced request with its handler time, then derive self
	// times: a request span's self time is the HTTP envelope.
	handler := map[string][]float64{}
	for _, id := range reqSpans {
		cs, ok := b.h.clock.lookup(id)
		if !ok {
			continue
		}
		route := strings.TrimPrefix(rec.get(id).name, "client.")
		rec.add("serve."+route, id, cs.start, cs.end)
		handler[route] = append(handler[route], cs.end.Sub(cs.start).Seconds())
	}
	rec.selfTimes()
	var envelope []float64
	for _, id := range reqSpans {
		envelope = append(envelope, rec.get(id).self.Seconds()*1e3)
	}
	if err := rec.writeChrome(b.cfg.traceOut, epoch); err != nil {
		return fmt.Errorf("writing the Chrome trace: %w", err)
	}
	b.info["trace_file"] = b.cfg.traceOut

	b.put("table.read_csv_ms", "ms", b.readCSVMs)
	b.put("table.csv_mb", "MB", float64(len(in.csvA)+len(in.csvB))/(1<<20))
	layers.put(b)
	b.putCounts(primary)
	for route, unitScale := range map[string]float64{
		"tables_put": 1e3, "blocker_set": 1e3, "join": 1, "next": 1e3, "labels": 1e3, "report": 1e3,
	} {
		name, unit := "serve."+route+"_ms", "ms"
		if unitScale == 1 {
			name, unit = "serve."+route+"_s", "s"
		}
		b.put(name, unit, median(handler[route])*unitScale)
	}
	b.put("serve.envelope_ms", "ms", median(envelope))
	b.put("serve.refused", "count", float64(b.h.refused.Load()))
	if sessions > 0 {
		n := float64(sessions)
		b.put("runtime.gc_cycles", "count", float64(ms1.NumGC-ms0.NumGC)/n)
		b.put("runtime.gc_pause_ms", "ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6/n)
		b.put("runtime.alloc_mb", "MB", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20)/n)
	}
	b.put("trace.overhead", "ratio", median(clocked)/median(plain))
	b.put("trace.session_self_ms", "ms", median(rec.rootSelfMs(t0)))
	b.info["samples"] = map[string]any{
		"untraced_sessions": len(plain), "traced_sessions": len(clocked),
		"compositions": len(layers.block), "traced_requests": len(reqSpans),
	}
	return nil
}

// putCounts reports the per-layer counts of the workload's own path,
// which are deterministic except the join's work counters.
func (b *bench) putCounts(primary []outcome) {
	var scored, prefix, prune, filter, flushed, reused, hits, shown, rounds []float64
	minScored, maxScored := math.Inf(1), math.Inf(-1)
	for _, o := range primary {
		st := o.stats
		s := float64(st.ScratchScores + st.ReusedScores)
		minScored, maxScored = math.Min(minScored, s), math.Max(maxScored, s)
		scored = append(scored, s)
		prefix = append(prefix, float64(st.PrefixEvents))
		prune = append(prune, float64(st.PruneKills))
		filter = append(filter, float64(st.PruneKillsLengthFilter+st.PruneKillsPrefixPos))
		flushed = append(flushed, float64(st.FlushedPairs))
		reused = append(reused, float64(st.ReusedScores))
		if st.ReusedScores+st.ReuseMisses > 0 {
			hits = append(hits, float64(st.ReusedScores)/float64(st.ReusedScores+st.ReuseMisses))
		} else {
			hits = append(hits, 0)
		}
		rounds = append(rounds, float64(len(o.iters)))
		if o.shown > 0 {
			shown = append(shown, float64(len(o.matches))/float64(o.shown))
		}
	}
	b.put("ssjoin.scored_pairs", "count", median(scored))
	b.put("ssjoin.prefix_events", "count", median(prefix))
	b.put("ssjoin.prune_kills", "count", median(prune))
	b.put("ssjoin.filter_kills", "count", median(filter))
	b.put("ssjoin.flushed_pairs", "count", median(flushed))
	b.put("ssjoin.reused_scores", "count", median(reused))
	b.put("ssjoin.reuse_hit_ratio", "ratio", median(hits))
	if minScored > 0 {
		b.put("ssjoin.work_spread", "ratio", maxScored/minScored)
	}
	b.put("blocker.c_size", "count", float64(b.ref.cSize))
	b.put("config.configs", "count", float64(b.ref.configs))
	b.put("ranker.e_size", "count", float64(b.ref.eSize))
	b.put("ranker.iterations", "count", median(rounds))
	b.put("ranker.match_yield", "ratio", median(shown))
}

// layerPool collects the traced compositions' per-call measurements.
type layerPool struct {
	mu                                                   sync.Mutex
	block, generate, corpus, joinAll, prepare            []float64
	cores, joinAlloc, loopAlloc, scoredPerS, usefulRatio []float64
	next, feedback                                       []time.Duration
}

func (p *layerPool) add(ls layerSample, out outcome) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.block = append(p.block, ls.block.Seconds()*1e3)
	p.generate = append(p.generate, ls.generate.Seconds()*1e3)
	p.corpus = append(p.corpus, ls.corpus.Seconds()*1e3)
	p.joinAll = append(p.joinAll, ls.joinAll.Seconds())
	p.prepare = append(p.prepare, ls.prepare.Seconds()*1e3)
	p.cores = append(p.cores, ls.joinCores)
	p.joinAlloc = append(p.joinAlloc, ls.joinAllocMB)
	p.loopAlloc = append(p.loopAlloc, ls.loopAllocMB)
	scored := float64(out.stats.ScratchScores + out.stats.ReusedScores)
	p.scoredPerS = append(p.scoredPerS, scored/ls.joinAll.Seconds())
	if scored > 0 {
		p.usefulRatio = append(p.usefulRatio, float64(ls.listed)/scored)
	}
	p.next = append(p.next, ls.next...)
	p.feedback = append(p.feedback, ls.feedback...)
}

func (p *layerPool) put(b *bench) {
	b.put("blocker.block_ms", "ms", median(p.block))
	b.put("config.generate_ms", "ms", median(p.generate))
	b.put("ssjoin.corpus_ms", "ms", median(p.corpus))
	b.put("ssjoin.joinall_s", "s", median(p.joinAll))
	b.put("ssjoin.joinall_cores", "ratio", median(p.cores))
	b.put("ssjoin.joinall_alloc_mb", "MB", median(p.joinAlloc))
	b.put("ssjoin.scored_per_s", "1/s", median(p.scoredPerS))
	b.put("ssjoin.useful_ratio", "ratio", median(p.usefulRatio))
	b.put("ranker.prepare_ms", "ms", median(p.prepare))
	b.put("ranker.next_p50_ms", "ms", median(millis(p.next)))
	b.put("ranker.feedback_p50_ms", "ms", median(millis(p.feedback)))
	b.put("ranker.loop_alloc_mb", "MB", median(p.loopAlloc))
}
