package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/telemetry"
)

// daemon is one bpservd or bprouter process started by the benchmark. It
// listens on a free loopback port, published through -portfile.
type daemon struct {
	name    string
	cmd     *exec.Cmd
	base    string       // http://host:port
	log     bytes.Buffer // stdout+stderr; read only after exit
	done    chan struct{}
	waitErr error
}

var portfileSeq atomic.Uint64

// startDaemon runs binDir/name with a loopback listen address plus args
// and waits until it has published its address.
func startDaemon(ctx context.Context, binDir, runDir, name string, args ...string) (*daemon, error) {
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	pf := filepath.Join(runDir, fmt.Sprintf("%s-%d-%d.port", name, os.Getpid(), portfileSeq.Add(1)))
	d := &daemon{name: name, done: make(chan struct{})}
	d.cmd = exec.Command(filepath.Join(binDir, name),
		append([]string{"-addr", "127.0.0.1:0", "-portfile", pf, "-quiet"}, args...)...)
	d.cmd.Stdout = &d.log
	d.cmd.Stderr = &d.log
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.done)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if b, err := os.ReadFile(pf); err == nil && len(bytes.TrimSpace(b)) > 0 {
			d.base = "http://" + string(bytes.TrimSpace(b))
			return d, nil
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("%s did not publish its address within 10s", name)
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("%s exited before listening (%v): %s", name, d.waitErr, d.log.String())
		case <-ctx.Done():
			d.kill()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stop sends SIGTERM and waits for the process. A daemon that does not
// exit within 20 s, or exits with a nonzero code, is an error: clean
// shutdown is one of the correctness gates.
func (d *daemon) stop() error {
	if d == nil {
		return nil
	}
	select {
	case <-d.done:
		return fmt.Errorf("%s exited before shutdown (%v): %s", d.name, d.waitErr, d.log.String())
	default:
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("signal %s: %w", d.name, err)
	}
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		d.kill()
		return fmt.Errorf("%s did not exit within 20s of SIGTERM", d.name)
	}
	if d.waitErr != nil {
		return fmt.Errorf("%s shutdown: %v: %s", d.name, d.waitErr, d.log.String())
	}
	return nil
}

// kill ends the process unconditionally and waits for it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
}

// procDir is the /proc directory of the daemon's process.
func (d *daemon) procDir() string { return fmt.Sprintf("/proc/%d", d.cmd.Process.Pid) }

// resetPeakRSS restarts a process's peak resident set (VmHWM) from its
// current resident set; procDir is its /proc directory.
func resetPeakRSS(procDir string) error {
	return os.WriteFile(filepath.Join(procDir, "clear_refs"), []byte("5"), 0)
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB from its
// /proc directory; 0 if unavailable.
func peakRSSMB(procDir string) float64 {
	f, err := os.Open(filepath.Join(procDir, "status"))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// stopAll stops every daemon, last started first, and joins the errors.
func stopAll(ds ...*daemon) error {
	var errs []error
	for i := len(ds) - 1; i >= 0; i-- {
		errs = append(errs, ds[i].stop())
	}
	return errors.Join(errs...)
}

// newTransport caps the load a run offers at maxConns connections: one
// per client goroutine, and no more client goroutines than CPUs.
func newTransport(maxConns int) *http.Transport {
	return &http.Transport{MaxIdleConnsPerHost: maxConns, MaxConnsPerHost: maxConns}
}

// client issues the API calls of one load goroutine. Every request carries
// an X-Request-Id of <ridPrefix>-<n>; in a traced run each call is a span.
type client struct {
	base      string
	hc        *http.Client
	ridPrefix string
	n         int
}

// statusError is a non-2xx reply.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("HTTP %d: %s", e.code, strings.TrimSpace(e.body))
}

// do sends one request and returns the reply body. name is the endpoint
// the request's span, a child of parent, is named after.
func (c *client) do(ctx context.Context, parent *span, name, method, path, ctype string, body []byte) ([]byte, error) {
	c.n++
	rid := fmt.Sprintf("%s-%d", c.ridPrefix, c.n)
	sp := parent.child("http." + name).withRequestID(rid)
	raw, err := c.send(ctx, method, path, ctype, rid, body)
	sp.end(err)
	return raw, err
}

func (c *client) send(ctx context.Context, method, path, ctype, rid string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	req.Header.Set(telemetry.RequestIDHeader, rid)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, &statusError{code: resp.StatusCode, body: string(raw)}
	}
	return raw, nil
}

// scrape reads a daemon's /metrics page, lints it with telemetry.ParseText,
// and flattens it to series name -> value.
func scrape(ctx context.Context, base string) (series, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	fams, err := telemetry.ParseText(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	return flatten(fams), nil
}

// series maps a rendered series name, labels included in page order
// (`bpservd_request_seconds_sum{endpoint="post_events"}`), to its value.
type series map[string]float64

func flatten(fams []telemetry.Family) series {
	out := series{}
	for _, f := range fams {
		for _, s := range f.Samples {
			key := s.Name
			if len(s.Labels) > 0 {
				parts := make([]string, len(s.Labels))
				for i, l := range s.Labels {
					parts[i] = fmt.Sprintf("%s=%q", l.Name, l.Value)
				}
				key += "{" + strings.Join(parts, ",") + "}"
			}
			out[key] = s.Value
		}
	}
	return out
}

// delta is the change in a daemon's series between two scrapes.
type delta struct{ before, after series }

// get is the change of one series.
func (d delta) get(key string) float64 { return d.after[key] - d.before[key] }

// total is the change summed over every series of one metric name,
// whatever its labels.
func (d delta) total(name string) float64 {
	sum := 0.0
	for k, v := range d.after {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v - d.before[k]
		}
	}
	return sum
}

// histMean is the mean observation of a histogram over the interval,
// from its _sum and _count series (labels as rendered, may be empty),
// with the observation count. The mean is 0 when nothing was observed.
func (d delta) histMean(name, labels string) (mean, count float64) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	count = d.get(name + "_count" + labels)
	if count == 0 {
		return 0, 0
	}
	return d.get(name+"_sum"+labels) / count, count
}
