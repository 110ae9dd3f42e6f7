package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/trace"
)

// FuzzPostEvents posts an arbitrary binary body with an arbitrary ?seq=
// to a fresh session whose last applied batch is seq 3. The handler must
// never panic or answer 5xx. A 2xx needs a body that decodes as exactly
// one P64T trace and a seq that is absent, the next one (4), or one
// already applied (1-3, acknowledged as a duplicate). A 2xx advances the
// session's event count by exactly the decoded count (none for a
// duplicate); any other reply leaves it unchanged.
func FuzzPostEvents(f *testing.F) {
	valid := EncodeBatch(testTrace().Events[:64], 100)
	for _, seq := range []string{"", "1", "3", "4", "5", "0", "x", "-1", "18446744073709551616"} {
		f.Add(valid, seq)
	}
	f.Add(valid[:len(valid)-5], "4")                    // truncated record
	f.Add(append(valid[:len(valid):len(valid)], 0), "") // trailing byte
	f.Add(EncodeBatch(nil, 0), "4")
	f.Add([]byte("P64T"), "")

	s := MustNew(Config{Shards: 1})
	f.Cleanup(func() { s.Close() })
	h := s.Handler()
	do := func(method, target, contentType string, body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, target, bytes.NewReader(body))
		req.Header.Set("Content-Type", contentType)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	must := func(t *testing.T, rec *httptest.ResponseRecorder, code int) {
		t.Helper()
		if rec.Code != code {
			t.Fatalf("setup: HTTP %d, want %d: %s", rec.Code, code, rec.Body)
		}
	}
	var ids atomic.Uint64
	f.Fuzz(func(t *testing.T, body []byte, seq string) {
		id := fmt.Sprintf("fz-%d", ids.Add(1))
		must(t, do("POST", "/v1/sessions", "application/json",
			[]byte(`{"id":"`+id+`","spec":"gshare:10:6","sfpf":true,"pgu":"all"}`)), http.StatusCreated)
		defer do("DELETE", "/v1/sessions/"+id, "", nil)
		path := "/v1/sessions/" + id + "/events"
		must(t, do("POST", path+"?seq=3", "application/octet-stream", EncodeBatch(nil, 0)), http.StatusOK)

		rec := do("POST", path+"?seq="+url.QueryEscape(seq), "application/octet-stream", body)
		if rec.Code >= 500 {
			t.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
		}
		br := bufio.NewReader(bytes.NewReader(body))
		tr, decErr := trace.ReadTraceFrom(br, nil)
		if _, err := br.ReadByte(); decErr == nil && err != io.EOF {
			decErr = fmt.Errorf("bytes after the trace")
		}
		n, seqErr := strconv.ParseUint(seq, 10, 64)
		dup := seqErr == nil && n >= 1 && n <= 3
		var want uint64
		if rec.Code/100 == 2 {
			if decErr != nil {
				t.Fatalf("HTTP %d for a body that does not decode (%v)", rec.Code, decErr)
			}
			if seq != "" && !dup && !(seqErr == nil && n == 4) {
				t.Fatalf("HTTP %d for seq %q after seq 3", rec.Code, seq)
			}
			var ack BatchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil || ack.Duplicate != dup {
				t.Fatalf("ack %s (%v), want duplicate=%v", rec.Body, err, dup)
			}
			if !dup {
				want = uint64(len(tr.Events))
			}
		}
		get := do("GET", "/v1/sessions/"+id, "", nil)
		must(t, get, http.StatusOK)
		var sess SessionJSON
		if err := json.Unmarshal(get.Body.Bytes(), &sess); err != nil {
			t.Fatal(err)
		}
		if sess.Events != want {
			t.Fatalf("HTTP %d moved the session to %d events, want %d", rec.Code, sess.Events, want)
		}
	})
}
