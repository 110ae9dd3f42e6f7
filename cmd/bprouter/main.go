// Command bprouter fronts a fleet of bpservd backends: it
// consistent-hashes session IDs across them, health-checks the fleet,
// retries around dead backends, and migrates sessions off draining
// backends with snapshots (see internal/router).
//
// Usage:
//
//	bprouter -addr 127.0.0.1:9090 -backends http://127.0.0.1:8081,http://127.0.0.1:8082
//	curl -X POST 'http://127.0.0.1:9090/admin/drain?backend=http://127.0.0.1:8081'
//
// Clients speak the ordinary bpservd API to the router; session
// placement and failover are invisible to them. Run the backends with a
// shared -spill directory so a killed backend's sessions warm-restore on
// whichever backend the ring reassigns them to.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/router"
	"repro/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bprouter:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bprouter", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:9090", "listen address (port 0 picks a free port)")
	backends := fs.String("backends", "", "comma-separated bpservd base URLs (required)")
	vnodes := fs.Int("vnodes", 64, "virtual nodes per backend on the hash ring")
	healthEvery := fs.Duration("health-interval", time.Second, "backend health-check interval")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request proxy timeout")
	maxBody := fs.Int64("max-body", 64<<20, "request body size cap in bytes")
	slow := fs.Duration("slow-request", 500*time.Millisecond, "log a structured slow_request line for requests over this latency (0 disables)")
	portfile := fs.String("portfile", "", "write the bound address to this file once listening")
	quiet := fs.Bool("quiet", false, "suppress router event log lines")
	drain := fs.Duration("drain", 10*time.Second, "shutdown deadline for in-flight requests")
	version := buildinfo.Flag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(out, buildinfo.String("bprouter"))
		return nil
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	var urls []string
	for _, u := range strings.Split(*backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}

	logger := log.New(out, "bprouter: ", log.LstdFlags|log.Lmicroseconds)
	if *quiet {
		logger = log.New(io.Discard, "", 0)
	}
	rt, err := router.New(router.Config{
		Backends:    urls,
		VNodes:      *vnodes,
		HealthEvery: *healthEvery,
		Timeout:     *timeout,
		MaxBody:     *maxBody,
		SlowRequest: *slow,
		Logger:      logger,
	})
	if err != nil {
		return err
	}
	defer rt.Close()

	return serve.ListenAndServe(ctx, out, *addr, *portfile, fmt.Sprintf("routing %d backends on ", len(urls)), rt.Handler(), *drain, nil)
}
