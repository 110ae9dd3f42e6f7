package serve

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"
)

// ListenAndServe is a daemon's HTTP lifecycle, shared by bpservd and
// bprouter: it listens on addr, publishes the bound address to portfile
// when set (atomically, so a watcher never reads a half-written file;
// the file goes when it returns), prints banner and the address to out,
// and serves h until ctx is done. It then shuts the HTTP server down,
// giving in-flight requests up to drain; the caller closes what h
// serves afterwards, so no handler is mid-enqueue when it does.
func ListenAndServe(ctx context.Context, out io.Writer, addr, portfile, banner string, h http.Handler, drain time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if portfile != "" {
		tmp := portfile + ".tmp"
		if err = os.WriteFile(tmp, []byte(bound+"\n"), 0o644); err == nil {
			err = os.Rename(tmp, portfile)
		}
		if err != nil {
			ln.Close()
			return err
		}
		defer os.Remove(portfile)
	}
	fmt.Fprintf(out, "%s%s\n", banner, bound)

	hs := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(out, "shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}
