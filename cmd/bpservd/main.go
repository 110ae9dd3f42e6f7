// Command bpservd serves the simulation engine over HTTP:
// prediction-as-a-service sessions, sweep evaluation, and /metrics
// observability (see internal/serve).
//
// Usage:
//
//	bpservd -addr 127.0.0.1:8080
//	bpservd -addr 127.0.0.1:0 -portfile /tmp/bpservd.port   # scripts read the bound address
//
// The daemon shuts down cleanly on SIGINT/SIGTERM: the HTTP server stops
// accepting work and drains in-flight handlers, then the session shards
// drain their queued batches, then the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bpservd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bpservd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
	shards := fs.Int("shards", 0, "session-owning workers (0 = GOMAXPROCS)")
	maxSessions := fs.Int("max-sessions", 1024, "resident session cap")
	sessionBytes := fs.Int64("session-bytes", 256<<20, "approximate resident session memory cap")
	ttl := fs.Duration("ttl", 10*time.Minute, "idle session expiry (0 = default)")
	queue := fs.Int("queue", 64, "per-shard batch queue depth")
	maxBody := fs.Int64("max-body", 64<<20, "request body size cap in bytes")
	rate := fs.Float64("rate", 0, "API requests per second (0 = unlimited)")
	burst := fs.Int("burst", 128, "rate limiter burst")
	sweepTimeout := fs.Duration("sweep-timeout", 30*time.Second, "default sweep deadline")
	sweepWorkers := fs.Int("sweep-workers", 0, "sweep fan-out (0 = GOMAXPROCS)")
	spill := fs.String("spill", "", "spill directory: evicted/expired/shutdown sessions are snapshotted here and warm-restored on touch (empty disables)")
	slow := fs.Duration("slow-request", 500*time.Millisecond, "log a structured slow_request line for requests over this latency (0 disables)")
	portfile := fs.String("portfile", "", "write the bound address to this file once listening")
	quiet := fs.Bool("quiet", false, "suppress per-request log lines")
	drain := fs.Duration("drain", 10*time.Second, "shutdown deadline for in-flight requests")
	version := buildinfo.Flag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(out, buildinfo.String("bpservd"))
		return nil
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	logger := log.New(out, "bpservd: ", log.LstdFlags|log.Lmicroseconds)
	if *quiet {
		logger = log.New(io.Discard, "", 0)
	}
	srv, err := serve.New(serve.Config{
		Shards:          *shards,
		MaxSessions:     *maxSessions,
		MaxSessionBytes: *sessionBytes,
		SessionTTL:      *ttl,
		QueueDepth:      *queue,
		MaxBody:         *maxBody,
		RatePerSec:      *rate,
		RateBurst:       *burst,
		SweepTimeout:    *sweepTimeout,
		SweepWorkers:    *sweepWorkers,
		SpillDir:        *spill,
		SlowRequest:     *slow,
		Logger:          logger,
	})
	if err != nil {
		return err
	}

	// Shutdown ordering: ListenAndServe stops the HTTP server first so
	// no handler is mid-enqueue, then Close drains the session shards.
	err = serve.ListenAndServe(ctx, out, *addr, *portfile, "listening on ", srv.Handler(), *drain)
	live := srv.Close()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "drained; %d sessions were live\n", live)
	return nil
}
