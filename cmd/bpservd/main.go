// Command bpservd serves the simulation engine over HTTP:
// prediction-as-a-service sessions fed P64T event batches, and /metrics
// observability (see internal/serve).
//
// Usage:
//
//	bpservd -addr 127.0.0.1:8080
//	bpservd -addr 127.0.0.1:0 -portfile /tmp/bpservd.port   # scripts read the bound address
//
// The daemon shuts down cleanly on SIGINT/SIGTERM: the session shards
// drain their queued batches and spill the live sessions (requests
// meanwhile answer 503 shutting_down once the spill is done), then the
// HTTP server stops accepting work and drains in-flight handlers, then
// the process exits 0.
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

// shutdownHold runs after the HTTP server has shut down, just before
// the final Close; tests replace it to hold the daemon with its
// listener closed.
var shutdownHold = func() {}

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
		SpillDir:        *spill,
		SlowRequest:     *slow,
		Logger:          logger,
	})
	if err != nil {
		return err
	}

	// Shutdown ordering: Close drains the session shards and spills the
	// live sessions while the listener is still open, so a request that
	// arrives meanwhile is refused with 503 only once its session is on
	// disk; then the HTTP server stops. A router retries either failure
	// on the session's next owner, which finds the session in the shared
	// spill directory.
	err = serve.ListenAndServe(ctx, out, *addr, *portfile, "listening on ", srv.Handler(), *drain, func() { srv.Close() })
	shutdownHold()
	live := srv.Close()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "drained; %d sessions were live\n", live)
	return nil
}
