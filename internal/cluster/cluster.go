// Package cluster turns N edsd processes into one cache-coherent fleet.
//
// The paper's algorithms are deterministic functions of the
// port-numbered graph (the determinism lints in cmd/edsvet guard exactly
// this property), so a run's result is globally cacheable by the
// canonical graph digest (graph.Digest). This package adds the machinery
// that exploits it across replicas:
//
//   - static membership: every replica is configured with the same peer
//     list (cmd/edsd's -self/-peers flags) and needs no coordination
//     service — membership changes are a rolling restart;
//   - ownership: rendezvous (highest-random-weight) hashing on the graph
//     digest assigns each graph exactly one owner replica, so each graph
//     is computed and cached once fleet-wide instead of once per replica;
//   - fill protocol: a non-owner that misses its local cache POSTs the
//     raw request to the owner's /internal/v1/fill and caches the
//     returned run record, groupcache-style, once it has verified the
//     record against its own decoding of the graph, instead of
//     recomputing;
//   - health: each peer is probed at /readyz on an interval and marked
//     down passively when a fill fails, so requests stop routing to
//     draining or dead replicas without waiting for the next probe;
//   - degradation: when the owner is unreachable the caller computes
//     locally — the fleet degrades to N independent caches, it never
//     fails a request because a peer died.
//
// The package owns membership, ownership, health, and the client side of
// the fill protocol; the server side (the /internal/v1/fill handler,
// which must enforce the same admission and input limits as the public
// endpoint) lives in internal/server.
package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// Config describes one replica's view of the fleet. Zero fields take the
// documented defaults.
type Config struct {
	// Self is this replica's advertised base URL, e.g.
	// "http://10.0.0.1:8080". It must appear in Peers.
	Self string
	// Peers is the full static membership, self included, as base URLs.
	// Every replica must be configured with the same set (order is
	// irrelevant: ownership is a pure function of the set and the graph
	// digest).
	Peers []string
	// HealthInterval is the period of the per-peer /readyz probe
	// (default 2s).
	HealthInterval time.Duration
	// HealthTimeout bounds one probe (default 1s).
	HealthTimeout time.Duration
	// FillTimeout bounds one fill attempt against the owner (default
	// 15s). It must comfortably exceed the server's batch window plus
	// the expected run time, or fills will fall back to local compute.
	FillTimeout time.Duration
	// MaxRetries is the number of extra fill attempts after a transport
	// failure (default 1). HTTP responses are never retried: the owner
	// answered, and its answer is either deterministic (shared) or a
	// load signal (fall back, do not hammer).
	MaxRetries int
	// Backoff is the sleep before the first retry, doubling per attempt
	// (default 50ms).
	Backoff time.Duration
	// Client issues fill and health requests (default: a plain
	// http.Client; per-attempt deadlines come from contexts).
	Client *http.Client
	// Logger receives peer state transitions (default: discard).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.HealthInterval <= 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = time.Second
	}
	if c.FillTimeout <= 0 {
		c.FillTimeout = 15 * time.Second
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 1
	}
	if c.Backoff <= 0 {
		c.Backoff = 50 * time.Millisecond
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// Cluster is one replica's live view of the fleet: the static member
// set plus each remote peer's health state.
type Cluster struct {
	cfg   Config
	self  string
	peers map[string]*Peer // keyed by base URL, self excluded

	stop chan struct{}
	done chan struct{}
}

// New validates the membership and returns a Cluster. Call Start to
// begin health probing and Stop on shutdown.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.Self == "" {
		return nil, errors.New("cluster: Self must be set")
	}
	if len(cfg.Peers) == 0 {
		return nil, errors.New("cluster: Peers must be non-empty (include Self)")
	}
	c := &Cluster{
		cfg:   cfg,
		self:  strings.TrimSuffix(cfg.Self, "/"),
		peers: make(map[string]*Peer),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	selfSeen := false
	for _, raw := range cfg.Peers {
		base := strings.TrimSuffix(raw, "/")
		u, err := url.Parse(base)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: peer %q is not an absolute URL", raw)
		}
		if base == c.self {
			selfSeen = true
			continue
		}
		if _, dup := c.peers[base]; dup {
			return nil, fmt.Errorf("cluster: duplicate peer %q", raw)
		}
		// Peers start ready: a replica that is actually down is caught by
		// the first probe or marked down passively on the first failed
		// fill, and the local-compute fallback keeps the window harmless.
		c.peers[base] = newPeer(base)
	}
	if !selfSeen {
		return nil, fmt.Errorf("cluster: Self %q must appear in Peers", cfg.Self)
	}
	return c, nil
}

// Self returns this replica's advertised base URL.
func (c *Cluster) Self() string { return c.self }

// Size returns the configured membership size, self included.
func (c *Cluster) Size() int { return len(c.peers) + 1 }

// Owner picks the replica owning the graph with the given canonical
// digest: the highest rendezvous score among self and the peers
// currently believed ready. self reports whether this replica is the
// owner (also true when every peer is down — ownership degrades to
// local compute, never to an error).
func (c *Cluster) Owner(digest []byte) (owner string, self bool) {
	best := c.self
	bestScore := rendezvousScore(c.self, digest)
	for base, p := range c.peers {
		if !p.Ready() {
			continue
		}
		s := rendezvousScore(base, digest)
		if s > bestScore || (s == bestScore && base > best) {
			best, bestScore = base, s
		}
	}
	return best, best == c.self
}

// ownerAmongAll is Owner over the full member set, health ignored. Tests
// use it to find the stable owner of a digest.
func (c *Cluster) ownerAmongAll(digest []byte) string {
	best := c.self
	bestScore := rendezvousScore(c.self, digest)
	for base := range c.peers {
		s := rendezvousScore(base, digest)
		if s > bestScore || (s == bestScore && base > best) {
			best, bestScore = base, s
		}
	}
	return best
}

// OwnerAmongAll returns the owner of digest over the full configured
// membership, ignoring health. This is the stable assignment that holds
// while the whole fleet is up.
func (c *Cluster) OwnerAmongAll(digest []byte) string { return c.ownerAmongAll(digest) }

// ErrPeerUnavailable wraps fill failures that exhausted their retry
// budget or hit an owner that is draining or overloaded; the caller
// degrades to local compute.
var ErrPeerUnavailable = errors.New("cluster: peer unavailable")

// Fill asks owner to serve the given /v1/run request body and query on
// this replica's behalf. The request is marked as an internal fill (the
// owner computes locally, never re-forwards) and carries the request ID
// for cross-replica tracing.
//
// The returned response is the owner's verbatim answer — 200 with the
// response body, or a deterministic client/run error (400, 413, 500,
// 504) that the caller should relay. Transport failures are retried
// MaxRetries times with doubling backoff; exhausted retries, 503 (owner
// draining) and 429 (owner overloaded) mark the peer down where
// appropriate and return an error wrapping ErrPeerUnavailable, telling
// the caller to compute locally. The caller owes resp.Body.Close when
// err is nil.
func (c *Cluster) Fill(ctx context.Context, owner, requestID, rawQuery string, body []byte) (*http.Response, error) {
	p := c.peers[owner]
	if p == nil {
		return nil, fmt.Errorf("%w: %q is not a peer", ErrPeerUnavailable, owner)
	}
	u := owner + "/internal/v1/fill"
	if rawQuery != "" {
		u += "?" + rawQuery
	}
	var lastErr error
	backoff := c.cfg.Backoff
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(backoff):
				backoff *= 2
			case <-ctx.Done():
				//lint:ignore roundctx not an engine: a fill abandoned by its caller is a peer-unavailable outcome, and the caller matches on ErrPeerUnavailable, not sim.ErrCanceled
				return nil, fmt.Errorf("%w: %v", ErrPeerUnavailable, context.Cause(ctx))
			}
		}
		attemptCtx, cancel := context.WithTimeout(ctx, c.cfg.FillTimeout)
		req, err := http.NewRequestWithContext(attemptCtx, http.MethodPost, u, bytes.NewReader(body))
		if err != nil {
			cancel()
			return nil, fmt.Errorf("%w: building fill request: %v", ErrPeerUnavailable, err)
		}
		req.Header.Set("Content-Type", "text/plain")
		req.Header.Set("X-Eds-Peer", c.self)
		if requestID != "" {
			req.Header.Set("X-Request-ID", requestID)
		}
		resp, err := c.cfg.Client.Do(req)
		if err != nil {
			cancel()
			lastErr = err
			// Do not retry past the caller's own deadline.
			if ctx.Err() != nil {
				break
			}
			continue
		}
		switch resp.StatusCode {
		case http.StatusServiceUnavailable:
			// The owner is draining: its readiness is already false, stop
			// routing to it before the next probe notices.
			resp.Body.Close()
			cancel()
			c.markDown(p, errors.New("fill answered 503 (draining)"))
			return nil, fmt.Errorf("%w: owner %s is draining", ErrPeerUnavailable, owner)
		case http.StatusTooManyRequests:
			// Overload is transient: fall back locally but keep the peer
			// ready — its queue being full says nothing about its health.
			resp.Body.Close()
			cancel()
			return nil, fmt.Errorf("%w: owner %s is saturated", ErrPeerUnavailable, owner)
		}
		// The owner answered: deterministic outcomes (200, 400, 413, 500,
		// 504) are the caller's to relay. The body must outlive this
		// attempt's context, so tie the cancel to its Close.
		p.markUp()
		resp.Body = &cancelOnClose{ReadCloser: resp.Body, cancel: cancel}
		return resp, nil
	}
	c.markDown(p, lastErr)
	return nil, fmt.Errorf("%w: owner %s unreachable after %d attempts: %v",
		ErrPeerUnavailable, owner, c.cfg.MaxRetries+1, lastErr)
}

// cancelOnClose defers an attempt context's cancel until the response
// body is consumed, so streaming fill responses are not cut off at the
// end of Fill.
type cancelOnClose struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (c *cancelOnClose) Close() error {
	err := c.ReadCloser.Close()
	c.cancel()
	return err
}

func (c *Cluster) markDown(p *Peer, cause error) {
	if p.markDown(cause) {
		c.cfg.Logger.Warn("peer down", "peer", p.base, "cause", fmt.Sprint(cause))
	}
}

// Start launches the per-peer health probes. Idempotent Stop ends them.
func (c *Cluster) Start() {
	go c.healthLoop()
}

// Stop signals the health probes started by Start to exit. Safe to call
// more than once, and before Start.
func (c *Cluster) Stop() {
	select {
	case <-c.stop:
		return
	default:
		close(c.stop)
	}
}

func (c *Cluster) healthLoop() {
	defer close(c.done)
	t := time.NewTicker(c.cfg.HealthInterval)
	defer t.Stop()
	c.probeAll()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.probeAll()
		}
	}
}

func (c *Cluster) probeAll() {
	for _, p := range c.peers {
		c.probe(p)
	}
}

// probe checks one peer's /readyz. Readiness — not liveness — is the
// routing signal: a draining replica is alive but must stop receiving
// fills.
func (c *Cluster) probe(p *Peer) {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.HealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+"/readyz", nil)
	if err != nil {
		c.markDown(p, err)
		return
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		c.markDown(p, err)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		c.markDown(p, fmt.Errorf("readyz answered %d", resp.StatusCode))
		return
	}
	if p.markUp() {
		c.cfg.Logger.Info("peer ready", "peer", p.base)
	}
}

// PeerStatus is one remote peer's health as reported by Snapshot.
type PeerStatus struct {
	URL       string    `json:"url"`
	Ready     bool      `json:"ready"`
	LastErr   string    `json:"last_err,omitempty"`
	LastEvent time.Time `json:"last_event,omitempty"`
}

// Snapshot reports every remote peer's current health, sorted by URL.
func (c *Cluster) Snapshot() []PeerStatus {
	out := make([]PeerStatus, 0, len(c.peers))
	for _, p := range c.peers {
		out = append(out, p.status())
	}
	sortStatuses(out)
	return out
}

func sortStatuses(s []PeerStatus) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].URL < s[j-1].URL; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
