package httpapi

import (
	"crypto/subtle"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"

	"repro/internal/obs"
)

// Bearer-token authentication for the control plane, following the
// GuildNet model: requests present the configured static token in an
// "Authorization: Bearer <token>" header (or "X-API-Token"), and
// requests from loopback are exempt by default — the daemon's own
// host keeps its operator tools working with zero configuration while
// anything crossing the machine boundary must authenticate. Denials
// are 401s in the v1 error envelope and counted on the registry.

// AuthConfig configures the Auth middleware.
type AuthConfig struct {
	// Token is the static bearer token. Empty disables the middleware
	// (Auth returns next unwrapped).
	Token string
	// TrustLoopback exempts requests from 127.0.0.1/::1 from the token
	// requirement. On by default in the daemon; the e2e harness turns
	// it off to exercise real denials from localhost.
	TrustLoopback bool
	// Registry, when set, receives the denial/success counters.
	Registry *obs.Registry
}

// LoadTokenFile reads a bearer token from a file, trimming whitespace
// and trailing newline. An empty file is an error — it would silently
// disable auth.
func LoadTokenFile(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", fmt.Errorf("httpapi: read token file: %w", err)
	}
	token := strings.TrimSpace(string(data))
	if token == "" {
		return "", fmt.Errorf("httpapi: token file %s is empty", path)
	}
	return token, nil
}

// bearerToken extracts the presented token: "Authorization: Bearer
// <token>" wins, "X-API-Token" is the fallback some clients prefer.
func bearerToken(r *http.Request) string {
	if h := r.Header.Get("Authorization"); h != "" {
		if tok, ok := strings.CutPrefix(h, "Bearer "); ok {
			return strings.TrimSpace(tok)
		}
		return ""
	}
	return r.Header.Get("X-API-Token")
}

// isLoopback reports whether the request arrived from 127.0.0.1/::1.
func isLoopback(r *http.Request) bool {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		host = r.RemoteAddr
	}
	ip := net.ParseIP(host)
	return ip != nil && ip.IsLoopback()
}

// Auth wraps a handler with bearer-token authentication. With an empty
// token it is a no-op; otherwise every request must present the token
// or (when TrustLoopback) originate from loopback. Denials get the 401
// envelope and never reach next.
func Auth(next http.Handler, cfg AuthConfig) http.Handler {
	if cfg.Token == "" {
		return next
	}
	var denied, allowed *obs.Counter
	if cfg.Registry != nil {
		denied = cfg.Registry.Counter("ihnet_http_auth_denied_total",
			"Requests rejected with 401 by the bearer-token middleware.")
		allowed = cfg.Registry.Counter("ihnet_http_auth_ok_total",
			"Requests passed by the bearer-token middleware (token or loopback).")
	}
	want := []byte(cfg.Token)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ok := subtle.ConstantTimeCompare([]byte(bearerToken(r)), want) == 1
		if !ok && cfg.TrustLoopback && isLoopback(r) {
			ok = true
		}
		if !ok {
			if denied != nil {
				denied.Inc()
			}
			w.Header().Set("WWW-Authenticate", `Bearer realm="ihnet"`)
			writeErr(w, fail(http.StatusUnauthorized, fmt.Errorf("missing or invalid bearer token")))
			return
		}
		if allowed != nil {
			allowed.Inc()
		}
		next.ServeHTTP(w, r)
	})
}
