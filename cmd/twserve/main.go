// Command twserve is the HTTP front-end of the internal/api façade:
// the served, multi-user face of the teaching pipeline. Every route
// is a thin JSON shim over one Service method — the same methods the
// twsim and twmodule CLIs call in-process — so a classroom of
// clients shares one deterministic result cache and one session
// registry. The route table itself lives in internal/serve; this
// binary only picks which core to put behind it:
//
//	twserve -addr :8080
//	twserve -addr :8080 -proxy http://10.0.0.7:8080,http://10.0.0.8:8080
//
// Without -proxy the process serves exactly one api.Service; its
// parallelism comes from concurrent requests sharing one cache and
// from chunked generation across all CPUs.
//
// With -proxy the server computes nothing itself: it fronts N other
// twserve *processes* through cluster.Cluster, routing by a
// consistent spec-hash ring — so respelled specs and
// Generate↔Analyze pairs keep hitting the same backend's warm cache,
// bit-identical to a single process. Proxy mode additionally mounts
// the live membership routes (GET /v1/cluster, POST
// /v1/cluster/{add,remove}) for growing and shrinking the backend
// ring under load with connection draining, and its GET /v1/stats
// sums the live backends' counters and lists each backend's own. A
// proxy whose every backend has been removed answers 503 until one is
// added back.
//
// See the internal/serve package documentation for the route table
// and the streaming/cancellation semantics (they are identical in
// both modes — a client hanging up mid-stream cancels the run
// end to end, through the proxy hop if there is one).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/player"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cacheCap := flag.Int("cache", api.DefaultCacheCapacity, "result cache capacity (0 disables)")
	proxy := flag.String("proxy", "", "comma-separated backend base URLs; serve as a cluster reverse proxy instead of computing locally")
	store := flag.String("store", "mem", "player store backend: mem (in-memory) or dir (file-backed)")
	storeDir := flag.String("store-dir", "players", "player store directory (with -store dir)")
	playerRPS := flag.Float64("player-rps", 0, "per-player request rate limit (0 disables)")
	playerBurst := flag.Float64("player-burst", 10, "per-player rate limit burst (with -player-rps)")
	flag.Parse()

	var handler http.Handler
	var mode string
	if *proxy != "" {
		// Proxy mode computes nothing locally — player state lives on
		// the backends, partitioned by the same ring as everything
		// else, so the store flags are intentionally unused here.
		cl, err := cluster.New(splitBackends(*proxy))
		if err != nil {
			log.Fatalf("twserve: %v", err)
		}
		handler = serve.NewProxyMux(cl, cl)
		mode = "proxy → " + strings.Join(cl.Backends(), ", ")
	} else {
		players, err := newPlayerEngine(*store, *storeDir, *playerRPS, *playerBurst)
		if err != nil {
			log.Fatalf("twserve: %v", err)
		}
		handler = newMux(api.New(api.WithCacheCapacity(*cacheCap), api.WithPlayers(players)))
		mode = "store " + *store
	}
	srv := newServer(*addr, handler)

	// Serve until interrupted, then drain in-flight requests.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("twserve: listening on %s (api %s, %s, cache %d)", *addr, api.Version, mode, *cacheCap)
	select {
	case err := <-errc:
		log.Fatalf("twserve: %v", err)
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("twserve: shutdown: %v", err)
		}
	}
}

// splitBackends parses the -proxy flag's comma-separated URL list.
func splitBackends(s string) []string {
	var out []string
	for _, b := range strings.Split(s, ",") {
		if b = strings.TrimSpace(b); b != "" {
			out = append(out, b)
		}
	}
	return out
}

// newServer builds the hardened http.Server (see serve.NewServer for
// the timeout posture). Kept as a local name so the test suite can
// assert it.
func newServer(addr string, h http.Handler) *http.Server {
	return serve.NewServer(addr, h)
}

// newPlayerEngine builds the process's player engine from the store
// and rate-limit flags: player state is mutable per-user data, served
// beside the result cache rather than through it.
func newPlayerEngine(store, dir string, rps, burst float64) (*player.Engine, error) {
	var backing player.Store
	switch store {
	case "mem":
		backing = player.NewMemStore()
	case "dir":
		ds, err := player.NewDirStore(dir)
		if err != nil {
			return nil, err
		}
		backing = ds
	default:
		return nil, fmt.Errorf("unknown -store %q (want mem or dir)", store)
	}
	return player.NewEngine(backing,
		player.WithLimiter(player.NewLimiter(rps, burst, player.DefaultMaxBuckets))), nil
}

// newMux builds the route table over a service core — see
// internal/serve for the handlers. Kept as a local name so the test
// suite drives the exact handler main wires.
func newMux(svc api.Core) http.Handler {
	return serve.NewMux(svc)
}
