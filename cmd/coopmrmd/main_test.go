package main

import (
	"net/http"
	"testing"
)

// The served API must bound header reads and idle keep-alives: a
// zero value means no timeout, letting slow clients hold connections
// open indefinitely.
func TestNewHTTPServerSetsTimeouts(t *testing.T) {
	h := http.NewServeMux()
	s := newHTTPServer("127.0.0.1:0", h)
	if s.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want > 0", s.ReadHeaderTimeout)
	}
	if s.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want > 0", s.IdleTimeout)
	}
	if s.Addr != "127.0.0.1:0" || s.Handler != h {
		t.Errorf("server not wired to the given address and handler: %q %v", s.Addr, s.Handler)
	}
}
