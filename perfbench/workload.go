package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"
)

// req is one request of a workload's fixed sequence. A "turn" is the
// players workload's three-request script (start attempt → submit →
// read progress); every other kind is a single HTTP request.
type req struct {
	Kind   string
	Method string
	Path   string
	Body   []byte
	// Player, Pattern and Answer drive a turn: Answer is a draw that
	// picks the submitted option as Answer mod the option count.
	Player  string
	Pattern string
	Answer  int
}

// key identifies a request for the reference-body tables.
func (r req) key() string { return r.Method + " " + r.Path + " " + string(r.Body) }

// plan is everything one run sends, fixed by the workload seed.
type plan struct {
	// Prime is sent once, in order, during set-up.
	Prime []req
	// Warm is stateless traffic cycled before the timed phase until
	// throughput levels off.
	Warm []req
	// Clients holds one fixed list per client goroutine for the timed
	// phase.
	Clients [][]req
	// Check lists the requests whose bodies are verified against a
	// reference captured after priming (lesson traffic).
	Check []req
}

// timedCount returns how many HTTP requests the timed phase sends in
// total, three for each turn.
func (p plan) timedCount() int {
	n := 0
	for _, c := range p.Clients {
		for _, r := range c {
			if r.Kind == "turn" {
				n += 3
			} else {
				n++
			}
		}
	}
	return n
}

// workload describes one named traffic mix.
type workload struct {
	Name string
	// Clients is the closed-loop client count.
	Clients int
	// Proxy fronts two twserve backends with twserve -proxy.
	Proxy bool
	// Flags are extra twserve flags for every computing server.
	Flags []string
	// PerSecond is the number of timed requests (turns, for players)
	// per second of --seconds; the timed phase lasts about --seconds
	// on a 2-CPU x86 host, and sends the same requests however fast
	// it runs.
	PerSecond int
	// LimitMS is the latency limit goodput counts against, well above
	// the plateau p90.
	LimitMS float64
	// Build makes the plan for a seed and a timed-request count.
	Build func(seed int64, n int) plan
}

// lessonFlags size the result cache for the lesson's 48 entries. At
// the default capacity of 64 the cache splits into one stripe per
// 8 entries on a 2-CPU host, and a lesson's keys overfill some stripe
// on most seeds, so a timed request would miss.
var lessonFlags = []string{"-cache", "1024"}

var workloads = []workload{
	{Name: "lesson", Clients: 2, Flags: lessonFlags, PerSecond: 2000, LimitMS: 50, Build: lessonPlan},
	{Name: "lesson-proxy", Clients: 2, Proxy: true, Flags: lessonFlags, PerSecond: 550, LimitMS: 100, Build: lessonPlan},
	{Name: "cold", Clients: 1, PerSecond: 16, LimitMS: 1000, Build: coldPlan},
	{Name: "players", Clients: 2, PerSecond: 1500, LimitMS: 100, Build: playersPlan},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// catalogScenarios are the engine's catalog entries the lesson draws
// its specs from.
var catalogScenarios = []string{"attack", "background", "beacon", "ddos", "exfil", "flashcrowd", "scan", "worm"}

// lessonHosts are the classroom network sizes: the paper's 10-host
// network up to a few dozen hosts.
var lessonHosts = []int{10, 24, 48}

// figurePatterns are the paper-figure patterns a module request or a
// quiz attempt renders.
var figurePatterns = []string{
	"fig6a-isolated-links", "fig6b-single-links", "fig6c-internal-supernode", "fig6d-external-supernode",
	"fig7a-planning", "fig7b-staging", "fig7c-infiltration", "fig7d-lateral-movement",
	"fig8a-security", "fig8b-defense", "fig8c-deterrence",
	"fig9a-command-and-control", "fig9b-botnet-clients", "fig9c-ddos-attack", "fig9d-backscatter",
	"fig10a-star", "fig10b-clique", "fig10c-bipartite", "fig10d-tree", "fig10e-ring",
	"fig10f-mesh", "fig10g-toroidal-mesh", "fig10h-self-loop", "fig10i-triangle",
}

// lessonWindow is the aggregation window of the lesson's generates.
const lessonWindow = 15

func postJSON(kind, path string, body any) req {
	b, err := json.Marshal(body)
	if err != nil {
		panic(err) // only literal maps of strings and numbers are marshalled
	}
	return req{Kind: kind, Method: "POST", Path: path, Body: b}
}

// lessonCycle is the lesson's repeating unit: every spec generated
// three times, each spec's analyze once and each figure pattern
// rendered once — shares of 60%, 20% and 20%. Sorted by latency the
// kinds run module < analyze < generate, so p50 falls halfway into
// the 10-host generates and p90 halfway into the 48-host ones, each
// ten points from a kind boundary.
func lessonCycle(seed int64) (gens, analyzes, modules []req) {
	rng := rand.New(rand.NewSource(seed))
	for _, name := range catalogScenarios {
		for _, hosts := range lessonHosts {
			s := rng.Int63n(1_000_000)
			gens = append(gens, postJSON("generate", "/v1/generate", map[string]any{
				"spec": name, "hosts": hosts, "seed": s, "window": lessonWindow, "include_matrices": true,
			}))
			analyzes = append(analyzes, postJSON("analyze", "/v1/analyze", map[string]any{
				"spec": name, "hosts": hosts, "seed": s,
			}))
		}
	}
	for _, p := range figurePatterns {
		modules = append(modules, postJSON("module", "/v1/module", map[string]any{"pattern": p}))
	}
	return gens, analyzes, modules
}

// lessonPlan primes every generate and analyze (so each timed request
// is a cache hit) and deals whole shuffled cycles to two clients.
func lessonPlan(seed int64, n int) plan {
	gens, analyzes, modules := lessonCycle(seed)
	var cycle []req
	for range 3 {
		cycle = append(cycle, gens...)
	}
	cycle = append(cycle, analyzes...)
	cycle = append(cycle, modules...)

	p := plan{Prime: append(append([]req(nil), gens...), analyzes...)}
	p.Check = append(append(append([]req(nil), gens...), analyzes...), modules...)
	p.Warm = cycle
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	p.Clients = make([][]req, 2)
	for i := 0; i*len(cycle) < n; i++ {
		c := append([]req(nil), cycle...)
		rng.Shuffle(len(c), func(a, b int) { c[a], c[b] = c[b], c[a] })
		p.Clients[i%2] = append(p.Clients[i%2], c...)
	}
	return p
}

// coldSpec is the cold workload's scenario: background traffic with a
// scan and then a DDoS laid over it.
const coldSpec = "overlay(background, sequence(scan, ddos))"

// coldRequest is one unique-seed 200-host cold generate.
func coldRequest(seed int64) req {
	return postJSON("cold", "/v1/generate", map[string]any{
		"spec": coldSpec, "hosts": 200, "seed": seed, "duration": 60, "scale": 8, "window": 10,
	})
}

// coldPlan fills the result cache with cheap distinct entries during
// set-up, so every timed request both misses and evicts, then sends n
// unique-seed cold generates from one client. Warm-up seeds come from
// a disjoint range.
func coldPlan(seed int64, n int) plan {
	base := rand.New(rand.NewSource(seed)).Int63n(1<<40) * 4
	var p plan
	for i := range 128 {
		p.Prime = append(p.Prime, postJSON("fill", "/v1/generate", map[string]any{
			"spec": "ddos", "seed": base + 3_000_000 + int64(i),
		}))
	}
	for i := range 1000 {
		p.Warm = append(p.Warm, coldRequest(base+1_000_000+int64(i)))
	}
	list := make([]req, n)
	for i := range list {
		list[i] = coldRequest(base + int64(i))
	}
	p.Clients = [][]req{list}
	return p
}

// Players workload shape.
const (
	playerCount = 16
	// masteryEvery adds an educator mastery read after every
	// masteryEvery-th turn of a client: 1 request in 37, so the slow
	// mastery reads sit above p90 with seven points to spare.
	masteryEvery = 12
)

func playerID(seed int64, i int) string { return fmt.Sprintf("s%d-p%02d", seed%1000, i) }

// playersPlan enrols the players during set-up and gives each client
// its own half of them, so every player's requests arrive in a fixed
// order. The timed phase is n turns; warm-up only reads progress and
// renders modules, so history depth depends on n alone.
func playersPlan(seed int64, n int) plan {
	if seed < 0 {
		seed = -seed
	}
	rng := rand.New(rand.NewSource(seed))
	var p plan
	for i := range playerCount {
		p.Prime = append(p.Prime, postJSON("create", "/v1/player", map[string]any{"id": playerID(seed, i)}))
		p.Warm = append(p.Warm,
			req{Kind: "progress", Method: "GET", Path: "/v1/player/" + playerID(seed, i) + "/progress"},
			postJSON("module", "/v1/module", map[string]any{"pattern": figurePatterns[i%len(figurePatterns)]}))
	}
	p.Clients = make([][]req, 2)
	turns := make([]int, 2)
	for i := range n {
		c := i % 2
		pl := c + 2*((i/2)%(playerCount/2))
		p.Clients[c] = append(p.Clients[c], req{
			Kind: "turn", Player: playerID(seed, pl),
			Pattern: figurePatterns[rng.Intn(len(figurePatterns))], Answer: rng.Intn(1 << 20),
		})
		turns[c]++
		if turns[c]%masteryEvery == 0 {
			p.Clients[c] = append(p.Clients[c], req{Kind: "mastery", Method: "GET", Path: "/v1/player/mastery"})
		}
	}
	return p
}

// runSize is the timed request count of a workload for --seconds.
func runSize(w workload, seconds int) int { return w.PerSecond * seconds }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
