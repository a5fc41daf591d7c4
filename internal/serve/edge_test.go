package serve

import (
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestHTTPServerCutsOffSlowHeaders opens a connection, sends half a
// request header and never finishes it: the server must close the
// connection once ReadHeaderTimeout expires instead of holding it open.
func TestHTTPServerCutsOffSlowHeaders(t *testing.T) {
	srv := New(Config{Workers: 1})
	hs := NewHTTPServer("", srv.Handler())
	if hs.ReadHeaderTimeout != ReadHeaderTimeout || hs.IdleTimeout != IdleTimeout || ReadHeaderTimeout <= 0 || IdleTimeout <= 0 {
		t.Fatalf("edge timeouts not set: header %v idle %v", hs.ReadHeaderTimeout, hs.IdleTimeout)
	}
	// The production timeout is seconds; shorten it so the test is fast.
	const cut = 150 * time.Millisecond
	hs.ReadHeaderTimeout = cut
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		if err := hs.Close(); err != nil {
			t.Error(err)
		}
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve returned %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "POST /v1/select HTTP/1.1\r\nHost: kernregd\r\nContent-Type: app"); err != nil {
		t.Fatal(err)
	}
	// A generous client-side deadline: hitting it means the server
	// never cut the connection off.
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	_, err = io.ReadAll(conn)
	elapsed := time.Since(start)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open after %v: the slow-header client was not cut off", elapsed)
	}
	if elapsed < cut {
		t.Fatalf("connection closed after %v, before the %v header timeout", elapsed, cut)
	}
}
