package cluster_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/serve"
)

// TestRemoteWorkerErrorMapping: a backend's 400 crosses the hop as
// the backend wrote it — the forwarded body equals the direct one,
// and the sentinel text appears in it exactly once.
func TestRemoteWorkerErrorMapping(t *testing.T) {
	_, backend := newBackend(t)
	cl, err := cluster.New([]string{backend.URL})
	if err != nil {
		t.Fatal(err)
	}

	req := api.GenerateRequest{Spec: "no-such-scenario"}
	_, err = cl.Generate(t.Context(), req)
	var be *serve.BackendError
	if !errors.As(err, &be) || be.Status != http.StatusBadRequest {
		t.Fatalf("remote invalid spec err = %v, want a forwarded 400", err)
	}
	if _, direct := postBody(t, backend.URL+"/v1/generate", req); !bytes.Equal(be.Body, direct) {
		t.Errorf("forwarded body %q, direct body %q", be.Body, direct)
	}
	if n := strings.Count(string(be.Body), api.ErrInvalidRequest.Error()); n != 1 {
		t.Errorf("sentinel appears %d times in %q, want exactly once", n, be.Body)
	}

	// A cancelled caller context maps to context.Canceled, not an
	// opaque transport error.
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	if _, err := cl.Generate(ctx, api.GenerateRequest{Spec: "scan", Workers: 1}); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled generate err = %v, want context.Canceled", err)
	}
}

// TestRemoteWorkerRejectsBadBase pins URL validation at membership.
func TestRemoteWorkerRejectsBadBase(t *testing.T) {
	for _, bad := range []string{"", "not a url", "ftp://host", "http://"} {
		if _, err := cluster.New([]string{bad}); err == nil {
			t.Errorf("cluster.New(%q) accepted a bad base", bad)
		}
	}
	// Trailing slashes normalize away so ring slots stay stable.
	cl, err := cluster.New([]string{"http://127.0.0.1:9/"})
	if err != nil {
		t.Fatal(err)
	}
	if got := cl.Backends(); len(got) != 1 || got[0] != "http://127.0.0.1:9" {
		t.Errorf("Backends() = %q, want trailing slash trimmed", got)
	}
}

// wantCancelled checks that err is the backend's 409 for a run an
// operator cancelled, forwarded with the sentinel's text.
func wantCancelled(t *testing.T, err error) {
	t.Helper()
	var be *serve.BackendError
	if !errors.As(err, &be) || be.Status != http.StatusConflict {
		t.Fatalf("cancelled remote run returned %v, want a forwarded 409", err)
	}
	if !bytes.Contains(be.Body, []byte(api.ErrSessionCancelled.Error())) {
		t.Errorf("409 body %q lacks %q", be.Body, api.ErrSessionCancelled)
	}
}

// TestRemoteWorkerCancelSession drives the DELETE route end to end:
// list the remote run (tagged with the backend base), cancel it, and
// watch the run die with the backend's 409.
func TestRemoteWorkerCancelSession(t *testing.T) {
	spec := slowClusterSpec
	_, backend := newBackend(t)
	cl, err := cluster.New([]string{backend.URL})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := cl.Generate(context.Background(), api.GenerateRequest{Spec: spec, Seed: 5, Workers: 1})
		done <- err
	}()

	var sessions []api.SessionInfo
	deadline := time.Now().Add(5 * time.Second)
	for {
		sessions = cl.Sessions()
		if len(sessions) > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(sessions) != 1 {
		t.Fatalf("remote sessions = %d, want 1", len(sessions))
	}
	if sessions[0].Backend != backend.URL {
		t.Errorf("session backend tag = %q, want %q", sessions[0].Backend, backend.URL)
	}
	if !cl.CancelSession(sessions[0].ID) {
		t.Error("remote CancelSession found nothing")
	}
	wantCancelled(t, <-done)
}

// TestClusterCatalogSkipsDeadBackend: a dead first member does not
// blank the catalog while a later one is live.
func TestClusterCatalogSkipsDeadBackend(t *testing.T) {
	_, dead := newBackend(t)
	dead.Close()
	_, live := newBackend(t)
	cl, err := cluster.New([]string{dead.URL, live.URL})
	if err != nil {
		t.Fatal(err)
	}
	if cat := cl.Catalog(t.Context()); len(cat.Scenarios) == 0 || len(cat.Patterns) == 0 {
		t.Fatalf("catalog with a dead first backend = %+v, want the live backend's", cat)
	}

	get := func(base string) []byte {
		resp, err := http.Get(base + "/v1/catalog")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	proxy := newProxy(t, cl)
	if want, got := get(live.URL), get(proxy.URL); !bytes.Equal(want, got) {
		t.Errorf("proxy catalog %.200s, want %.200s", got, want)
	}

	// With every member down the answer is the empty versioned catalog.
	empty, err := cluster.New([]string{dead.URL})
	if err != nil {
		t.Fatal(err)
	}
	if cat := empty.Catalog(t.Context()); cat.Version != api.Version || len(cat.Scenarios) != 0 {
		t.Errorf("catalog with no live backend = %+v", cat)
	}
}

// TestClusterCatalogOneAttemptPerMember: a first member that accepts
// connections and drops them is tried exactly once before the walk
// moves on to the live member — no retry budget is spent on it.
func TestClusterCatalogOneAttemptPerMember(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var accepts atomic.Int32
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			conn.Close()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	_, live := newBackend(t)
	cl, err := cluster.New([]string{"http://" + ln.Addr().String(), live.URL})
	if err != nil {
		t.Fatal(err)
	}
	if cat := cl.Catalog(t.Context()); len(cat.Scenarios) == 0 {
		t.Fatalf("catalog with a dropping first backend = %+v, want the live backend's", cat)
	}
	if n := accepts.Load(); n != 1 {
		t.Errorf("dropping first member saw %d connection attempts, want exactly 1", n)
	}
}
