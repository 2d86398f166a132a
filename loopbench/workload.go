package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/csv"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"matchcatcher"
	"matchcatcher/internal/blocker"
	"matchcatcher/internal/datagen"
	"matchcatcher/internal/oracle"
	"matchcatcher/internal/ranker"
	"matchcatcher/internal/ssjoin"
)

// workload is one benchmark input (a Table-1 profile at a scale plus a
// Table-2 blocker) and the path that drives it: the library loop
// (matchcatcher.New + Next/Feedback) or the HTTP session API.
type workload struct {
	name    string
	profile func() datagen.Profile
	scale   float64
	rule    string // Table-2 blocker expression
	keep    bool   // rule is a keep condition (HASH rows) rather than a drop rule
	served  bool   // driven through internal/serve over a loopback listener
	clients int    // closed-loop HTTP clients (served workloads only)
	// maxGap bounds the random pause before each of a client's sessions.
	// Without it two clients keep whatever phase they start in: rounds
	// overlap the other client's join in some runs and not in others, and
	// the round metrics jump by a quarter between runs.
	maxGap time.Duration
}

// The three workloads stress different layers; LAYERS.md maps each
// per-layer metric to the workload where it should move and the one
// where it should not.
var workloads = []workload{
	// Join-bound: 7500x7500 M2 sits above the flat join kernel's 32Mi-pair
	// cutoff, so the legacy kernel runs; tuples are short, so score reuse
	// is gated off.
	{name: "m2_join", profile: datagen.Music2, scale: 0.15, rule: "attr_equal_artist_name", keep: true},
	// Verifier-bound: about 60 Next+Feedback rounds after a ~1 s join. Not
	// gated in BENCHMARK.json: its spread between runs exceeds the bounds
	// on a noisy 2-vCPU host (see LAYERS.md).
	{name: "ag_verify", profile: datagen.AmazonGoogle, scale: 1, rule: "attr_equal_manuf", keep: true},
	// Served: CSV upload parsing, a pairwise rule blocker and the HTTP
	// envelope are on the path; long tuples switch score reuse on; two
	// clients make two joins contend for the host's cores.
	{name: "wa_serve", profile: datagen.WalmartAmazon, scale: 0.1,
		rule: "price_absdiff>20 OR title_jac_word<0.5", served: true, clients: 2, maxGap: 500 * time.Millisecond},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// verifierSeedsPerRun is how many verifier seeds a run's sessions cycle
// through. The verifier's random forest makes the number and the cost of
// rounds depend on its seed; cycling averages that within each run
// instead of leaving it to differ between runs.
const verifierSeedsPerRun = 8

// verifierSeed returns the verifier and synthetic-user seed of a run's
// i-th session. It is odd, hence never 0, which the session API would
// replace by 1.
func verifierSeed(seed int64, i int) int64 {
	return (seed*verifierSeedsPerRun+int64(i%verifierSeedsPerRun))<<1 | 1
}

func (w workload) blocker() (matchcatcher.Blocker, error) {
	if w.keep {
		return matchcatcher.ParseKeepRule(w.name, w.rule)
	}
	return matchcatcher.ParseDropRule(w.name, w.rule)
}

// inputs is one run's generated tables, as CSV bytes and as tables parsed
// back from those bytes, plus the gold matches the synthetic user labels
// from.
type inputs struct {
	csvA, csvB []byte
	a, b       *matchcatcher.Table
	gold       *blocker.PairSet
	readCSV    time.Duration // matchcatcher.ReadCSV of both tables
}

// prepare generates the profile's dataset, then lays out the rows of
// both tables in an order drawn from seed (gold follows the rows). The
// profile's own datagen seed stays fixed: a different draw changes the
// join's work by about 10% on M2 (2.87M to 3.11M scored pairs), which
// would swamp the run-to-run noise the bounds are for.
func prepare(w workload, seed int64) (*inputs, error) {
	p := w.profile()
	if w.scale != 1 {
		p = p.Scaled(w.scale)
	}
	d, err := datagen.Generate(p)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{gold: blocker.NewPairSet()}
	rowA, csvA, err := shuffledCSV(d.A, rng)
	if err != nil {
		return nil, err
	}
	rowB, csvB, err := shuffledCSV(d.B, rng)
	if err != nil {
		return nil, err
	}
	d.Gold.ForEach(func(a, b int) { in.gold.Add(rowA[a], rowB[b]) })
	in.csvA, in.csvB = csvA, csvB
	start := time.Now()
	if in.a, err = matchcatcher.ReadCSV(d.A.Name(), bytes.NewReader(in.csvA)); err != nil {
		return nil, err
	}
	if in.b, err = matchcatcher.ReadCSV(d.B.Name(), bytes.NewReader(in.csvB)); err != nil {
		return nil, err
	}
	in.readCSV = time.Since(start)
	return in, nil
}

// shuffledCSV encodes t with its rows in a random order and returns each
// original row's new index.
func shuffledCSV(t *matchcatcher.Table, rng *rand.Rand) ([]int, []byte, error) {
	order := rng.Perm(t.NumRows())
	newRow := make([]int, len(order))
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	if err := cw.Write(t.Attrs()); err != nil {
		return nil, nil, err
	}
	for i, old := range order {
		newRow[old] = i
		if err := cw.Write(t.Row(old)); err != nil {
			return nil, nil, err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return nil, nil, fmt.Errorf("encoding %s: %w", t.Name(), err)
	}
	return newRow, buf.Bytes(), nil
}

// outcome is what one session measured and what its checks compare.
type outcome struct {
	vseed      int64           // verifier and synthetic-user seed
	firstPairs time.Duration   // tables in memory (served: create) to the first batch
	total      time.Duration   // tables in memory (served: create) to the stopping condition
	iters      []time.Duration // Next+Feedback per round, labelling excluded
	shown      int             // pairs shown to the user
	digest     string          // top-k lists (library) or canonical report (served)
	matches    []blocker.Pair  // confirmed matches, sorted
	eSize      int
	cSize      int
	configs    int
	stats      ssjoin.Stats
	err        error // transport failure or failed output check
}

// reference holds what every session of a run is checked against: the
// warm-up library session's join outputs and, per verifier seed, the
// confirmed matches of the first library session with that seed and the
// canonical report of the first served one.
type reference struct {
	digest                string // top-k lists digest
	c                     *blocker.PairSet
	cSize, eSize, configs int
	inE                   int // gold matches in E (Table 3's M_E)
	killed                int // gold matches not in C (Table 3's M_D)

	mu      sync.Mutex
	matches map[int64][]blocker.Pair
	reports map[int64]string
}

// labeller answers for the synthetic user: gold labels, no noise, no
// think time.
func labeller(in *inputs, seed int64) func([]blocker.Pair) []bool {
	u := oracle.New(in.gold, 0, seed)
	return func(pairs []blocker.Pair) []bool {
		labels := make([]bool, len(pairs))
		for i, p := range pairs {
			labels[i] = u.Label(p.A, p.B)
		}
		return labels
	}
}

// librarySession runs one session through the public entry points with
// default options; only the verifier seed is set.
func librarySession(w workload, in *inputs, vseed int64) (outcome, *matchcatcher.Debugger, *blocker.PairSet) {
	out := outcome{vseed: vseed}
	q, err := w.blocker()
	if err != nil {
		out.err = err
		return out, nil, nil
	}
	label := labeller(in, vseed)
	start := time.Now()
	c, err := q.Block(in.a, in.b)
	if err != nil {
		out.err = err
		return out, nil, nil
	}
	var opt matchcatcher.Options
	opt.Verifier = ranker.Options{Seed: vseed}
	dbg, err := matchcatcher.New(in.a, in.b, c, opt)
	if err != nil {
		out.err = err
		return out, nil, nil
	}
	for !dbg.Done() {
		t := time.Now()
		pairs := dbg.Next()
		next := time.Since(t)
		if out.firstPairs == 0 {
			out.firstPairs = time.Since(start)
		}
		if len(pairs) == 0 {
			break
		}
		labels := label(pairs)
		t = time.Now()
		if err := dbg.Feedback(labels); err != nil {
			out.err = err
			return out, nil, nil
		}
		out.iters = append(out.iters, next+time.Since(t))
		out.shown += len(pairs)
	}
	dbg.Finish()
	out.total = time.Since(start)
	if out.firstPairs == 0 {
		out.firstPairs = out.total
	}
	out.digest = listsDigest(dbg.Lists())
	out.matches = sortedPairs(dbg.Matches())
	out.eSize = dbg.CandidateCount()
	out.cSize = c.Len()
	out.configs = len(dbg.Lists())
	out.stats = dbg.JoinStats()
	if out.err = checkPool(dbg.Lists(), c, in, out.matches); out.err != nil {
		return out, nil, nil
	}
	return out, dbg, c
}

// newReference runs the warm-up library session and takes the checks'
// reference values from it.
func newReference(w workload, in *inputs, vseed int64) (*reference, error) {
	out, dbg, c := librarySession(w, in, vseed)
	if out.err != nil {
		return nil, fmt.Errorf("warm-up session: %w", out.err)
	}
	ref := &reference{
		digest: out.digest, c: c, cSize: out.cSize, eSize: out.eSize, configs: out.configs,
		matches: map[int64][]blocker.Pair{vseed: out.matches},
		reports: map[int64]string{},
	}
	dbg.Candidates().ForEach(func(a, b int) {
		if in.gold.Contains(a, b) {
			ref.inE++
		}
	})
	in.gold.ForEach(func(a, b int) {
		if !c.Contains(a, b) {
			ref.killed++
		}
	})
	return ref, nil
}

// checkPool checks that no pair of E is in C and every confirmed match is
// a gold match outside C.
func checkPool(lists []ssjoin.TopKList, c *blocker.PairSet, in *inputs, matches []blocker.Pair) error {
	for _, l := range lists {
		for _, p := range l.Pairs {
			if c.Contains(int(p.A), int(p.B)) {
				return fmt.Errorf("pair (%d,%d) of E is in C", p.A, p.B)
			}
		}
	}
	return checkMatches(c, in, matches)
}

func checkMatches(c *blocker.PairSet, in *inputs, matches []blocker.Pair) error {
	for _, m := range matches {
		if !in.gold.Contains(m.A, m.B) {
			return fmt.Errorf("confirmed match (%d,%d) is not in gold", m.A, m.B)
		}
		if c.Contains(m.A, m.B) {
			return fmt.Errorf("confirmed match (%d,%d) is in C", m.A, m.B)
		}
	}
	return nil
}

// check compares a library session's outputs with the reference.
func (ref *reference) check(out outcome) error {
	if out.err != nil {
		return out.err
	}
	if out.digest != ref.digest {
		return fmt.Errorf("top-k lists digest %.12s differs from the warm-up session's %.12s", out.digest, ref.digest)
	}
	return ref.checkCommon(out)
}

// checkServed checks a served session: its matches against the gold and
// C, then the same outputs as a library session with its verifier seed,
// and its canonical report against the first served session's with that
// seed.
func (ref *reference) checkServed(out outcome, in *inputs) error {
	if out.err != nil {
		return out.err
	}
	if err := checkMatches(ref.c, in, out.matches); err != nil {
		return err
	}
	if err := ref.checkCommon(out); err != nil {
		return err
	}
	ref.mu.Lock()
	defer ref.mu.Unlock()
	want, ok := ref.reports[out.vseed]
	if !ok {
		ref.reports[out.vseed] = out.digest
	} else if out.digest != want {
		return fmt.Errorf("canonical report digest %.12s differs from %.12s of the run's first served session with verifier seed %d",
			out.digest, want, out.vseed)
	}
	return nil
}

func (ref *reference) checkCommon(out outcome) error {
	if out.eSize != ref.eSize {
		return fmt.Errorf("|E| = %d, reference %d", out.eSize, ref.eSize)
	}
	if out.cSize != ref.cSize {
		return fmt.Errorf("|C| = %d, reference %d", out.cSize, ref.cSize)
	}
	if out.configs != ref.configs {
		return fmt.Errorf("%d configs, reference %d", out.configs, ref.configs)
	}
	ref.mu.Lock()
	defer ref.mu.Unlock()
	want, ok := ref.matches[out.vseed]
	if !ok {
		ref.matches[out.vseed] = out.matches
		return nil
	}
	if len(out.matches) != len(want) {
		return fmt.Errorf("%d matches, %d in the reference with verifier seed %d", len(out.matches), len(want), out.vseed)
	}
	for i := range out.matches {
		if out.matches[i] != want[i] {
			return fmt.Errorf("match %d is %v, reference %v (verifier seed %d)", i, out.matches[i], want[i], out.vseed)
		}
	}
	return nil
}

// listsDigest hashes the per-config top-k lists: config mask, then each
// pair's ids and exact score bits.
func listsDigest(lists []ssjoin.TopKList) string {
	h := sha256.New()
	var buf [16]byte
	for _, l := range lists {
		binary.LittleEndian.PutUint64(buf[:8], uint64(l.Config))
		binary.LittleEndian.PutUint64(buf[8:], uint64(len(l.Pairs)))
		h.Write(buf[:])
		for _, p := range l.Pairs {
			binary.LittleEndian.PutUint32(buf[:4], uint32(p.A))
			binary.LittleEndian.PutUint32(buf[4:8], uint32(p.B))
			binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(p.Score))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func sortedPairs(ps []blocker.Pair) []blocker.Pair {
	out := append([]blocker.Pair(nil), ps...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}
