package serve

import (
	"net/http"
	"time"
)

// Edge timeouts for the daemons' listeners (kernregd and kerncoord).
// Without them a client that opens a connection and never finishes its
// request headers holds a goroutine and a file descriptor forever, and
// an idle keep-alive connection is never reaped. The header phase is
// bounded only: a large sample's body may legitimately take a while to
// stream, and compute is already capped per request by Config.Timeout,
// so there is no whole-request ReadTimeout or WriteTimeout.
const (
	// ReadHeaderTimeout bounds the time to read a request's headers.
	ReadHeaderTimeout = 10 * time.Second
	// IdleTimeout bounds how long a keep-alive connection may sit idle
	// between requests.
	IdleTimeout = 2 * time.Minute
)

// NewHTTPServer returns the http.Server a daemon listens with: h on
// addr, with the edge timeouts above.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: ReadHeaderTimeout,
		IdleTimeout:       IdleTimeout,
	}
}
