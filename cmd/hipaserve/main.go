// Command hipaserve is the long-running PageRank service: it loads a
// registry of graphs, holds their preprocessing artifacts hot, and serves
// rank queries, top-k listings, and adjacency over HTTP until stopped.
//
// Usage:
//
//	hipaserve -config serve.json [-listen 127.0.0.1:8080]
//	hipaserve -dataset wiki [-divisor 256] [-name wiki] [-listen ...]
//	hipaserve -graph g.bin [-divisor 1] [-name g] [-listen ...]
//
// -config names a JSON file in the serve.Config shape (a "graphs" array of
// {name, path | dataset, divisor} plus optional engine/preset/tolerance/
// concurrency settings). The single-graph flag form builds the equivalent
// one-entry config without a file. -listen overrides the config's address;
// 127.0.0.1:0 picks an ephemeral port. The bound URL is printed on stdout
// as "hipaserve: serving http://HOST:PORT" before the first request is
// accepted, so scripts can scrape it.
//
// Endpoints: GET /v1/rank, /v1/ppr, /v1/topk, /v1/neighbors, /v1/graphs; POST
// /v1/admin/reload with a mutation-stream body ("+/-/commit" lines, at most
// 64 MiB) applies graph updates and atomically swaps the serving artifact —
// in-flight queries finish on the version they started with. /metrics, /healthz,
// /runs, and /debug/pprof/ serve telemetry on the same listener.
//
// SIGINT/SIGTERM shut the server down gracefully: the listener closes,
// in-flight requests drain (bounded by -shutdown-timeout, 0 = wait
// indefinitely), and the process exits 0.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hipa/internal/serve"
)

func main() {
	var (
		configPath = flag.String("config", "", "JSON config file (serve.Config shape); overrides the single-graph flags")
		graphPath  = flag.String("graph", "", "serve one binary HGR1 graph file")
		dataset    = flag.String("dataset", "", "serve one generated catalog analog: journal, pld, wiki, kron, twitter, mpi")
		divisor    = flag.Int("divisor", 0, "scale divisor for -graph/-dataset (0 = dataset default)")
		name       = flag.String("name", "", "registry name for the single-graph form (default: dataset or file name)")
		engine     = flag.String("engine", "", "serving engine (default hipa)")
		listen     = flag.String("listen", "", "listen address (default config's, else 127.0.0.1:8080; :0 = ephemeral)")
		tol        = flag.Float64("tol", 0, "convergence tolerance (default 1e-7)")
		threads    = flag.Int("threads", 0, "Exec worker threads (0 = GOMAXPROCS per NUMA node of the preset, capped at its logical cores)")
		maxExecs   = flag.Int("max-execs", 0, "max concurrent Execs (0 = all cores)")
		shutdownTO = flag.Duration("shutdown-timeout", 10*time.Second, "graceful-shutdown bound; 0 waits for in-flight requests indefinitely")
	)
	flag.Parse()
	if err := run(*configPath, *graphPath, *dataset, *divisor, *name, *engine, *listen, *tol, *threads, *maxExecs, *shutdownTO); err != nil {
		fmt.Fprintln(os.Stderr, "hipaserve:", err)
		os.Exit(1)
	}
}

func run(configPath, graphPath, dataset string, divisor int, name, engine, listen string, tol float64, threads, maxExecs int, shutdownTO time.Duration) error {
	cfg, err := buildConfig(configPath, graphPath, dataset, divisor, name)
	if err != nil {
		return err
	}
	if engine != "" {
		cfg.Engine = engine
	}
	if tol != 0 {
		cfg.Tolerance = tol
	}
	if threads != 0 {
		cfg.Threads = threads
	}
	if maxExecs != 0 {
		cfg.MaxConcurrentExecs = maxExecs
	}
	if listen != "" {
		cfg.Listen = listen
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:8080"
	}

	for _, g := range cfg.Graphs {
		fmt.Printf("hipaserve: loading %s\n", describeSpec(g))
	}
	start := time.Now()
	svc, err := serve.New(cfg)
	if err != nil {
		return err
	}
	defer svc.Close()
	fmt.Printf("hipaserve: %d graph(s) prepared in %.2fs (engine %s)\n", len(cfg.Graphs), time.Since(start).Seconds(), svc.EngineName())

	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return err
	}
	// IdleTimeout closes keep-alive connections a client has abandoned, so
	// they cannot pile up; ReadHeaderTimeout does the same for slow headers.
	srv := &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 5 * time.Second, IdleTimeout: 2 * time.Minute}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Printf("hipaserve: serving http://%s\n", ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		fmt.Printf("hipaserve: %s, shutting down\n", s)
	}
	ctx := context.Background()
	if shutdownTO > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, shutdownTO)
		defer cancel()
	}
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}

// buildConfig loads -config, or assembles a one-graph config from the flag
// form.
func buildConfig(configPath, graphPath, dataset string, divisor int, name string) (serve.Config, error) {
	var cfg serve.Config
	if configPath != "" {
		if graphPath != "" || dataset != "" {
			return cfg, fmt.Errorf("-config excludes -graph/-dataset")
		}
		b, err := os.ReadFile(configPath)
		if err != nil {
			return cfg, err
		}
		if err := json.Unmarshal(b, &cfg); err != nil {
			return cfg, fmt.Errorf("%s: %w", configPath, err)
		}
		return cfg, nil
	}
	spec := serve.GraphSpec{Name: name, Path: graphPath, Dataset: dataset, Divisor: divisor}
	if spec.Name == "" {
		switch {
		case dataset != "":
			spec.Name = dataset
		case graphPath != "":
			spec.Name = trimExt(graphPath)
		default:
			return cfg, fmt.Errorf("need -config, -graph, or -dataset (run with -h for usage)")
		}
	}
	cfg.Graphs = []serve.GraphSpec{spec}
	return cfg, nil
}

// trimExt reduces a path to its base name without extension, the default
// registry name for file-served graphs.
func trimExt(path string) string {
	base := path
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			base = path[i+1:]
			break
		}
	}
	for i := len(base) - 1; i >= 0; i-- {
		if base[i] == '.' {
			return base[:i]
		}
	}
	return base
}

func describeSpec(g serve.GraphSpec) string {
	if g.Path != "" {
		return fmt.Sprintf("%s (file %s)", g.Name, g.Path)
	}
	return fmt.Sprintf("%s (generated %s /%d)", g.Name, g.Dataset, g.Divisor)
}
