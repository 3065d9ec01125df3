package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"strings"
	"time"
)

// requestIDKey carries the request ID through the request context, from
// the middleware down to the fill client, so one ID follows a request
// across every replica it touches.
type requestIDKey struct{}

// requestIDFrom returns the request's ID, or "" outside the middleware.
func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// newRequestID returns a fresh 16-hex-character request ID.
func newRequestID() string {
	var b [8]byte
	rand.Read(b[:]) // crypto/rand.Read never fails (it panics instead, per its docs)
	return hex.EncodeToString(b[:])
}

// statusWriter records the status code and body bytes a handler wrote,
// for the request log and the /statsz counts. It forwards Flush so the streaming path keeps
// its chunked delivery through the middleware.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps the endpoint mux in the observability middleware:
//
//   - X-Request-ID: taken from the client (so an ID minted by an edge
//     proxy, or by the non-owner replica that forwarded a fill, is
//     preserved) or generated here; echoed on the response and carried
//     in the context for the fill client to propagate. Following one ID
//     through each replica's request log reconstructs a request's whole
//     cross-replica path.
//   - one structured log line per request: method, path, status, bytes,
//     duration, cache disposition, and the requesting peer for fills.
//     Health probes log at Debug so an idle fleet's logs stay quiet.
//   - /statsz's request counts, by status, of /v1/run and the fill.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = newRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		ctx := context.WithValue(r.Context(), requestIDKey{}, id)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(ctx))
		if r.URL.Path == "/v1/run" || r.URL.Path == "/internal/v1/fill" {
			s.st.recordStatus(sw.code)
		}

		level := slog.LevelInfo
		if isProbePath(r.URL.Path) {
			level = slog.LevelDebug
		}
		if !s.cfg.Logger.Enabled(ctx, level) {
			return
		}
		attrs := []slog.Attr{
			slog.String("id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.code),
			slog.Int64("bytes", sw.bytes),
			slog.Duration("elapsed", time.Since(start)),
		}
		if c := w.Header().Get("X-Cache"); c != "" {
			attrs = append(attrs, slog.String("cache", c))
		}
		if peer := r.Header.Get("X-Eds-Peer"); peer != "" {
			attrs = append(attrs, slog.String("fill_for", peer))
		}
		s.cfg.Logger.LogAttrs(ctx, level, "request", attrs...)
	})
}

func isProbePath(p string) bool {
	return p == "/healthz" || p == "/livez" || p == "/readyz" ||
		strings.HasPrefix(p, "/debug/pprof/")
}
