package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/runtime"
)

// ErrorKind is the serving layer's error taxonomy. Every failed
// request maps to exactly one kind, carried in the JSON error body,
// so callers can tell a request they must fix (validation) from one
// they should retry elsewhere (shed) from one that aged out (timeout)
// from one the backend could not answer (tier_exhausted).
type ErrorKind string

// The error taxonomy (DESIGN.md, "Serving layer").
const (
	// KindValidation: the question itself is malformed; retrying the
	// identical request can never succeed.
	KindValidation ErrorKind = "validation"
	// KindShed: the waiting room was full and admission control turned
	// the request away; retry after the hinted delay.
	KindShed ErrorKind = "shed"
	// KindTimeout: the per-request deadline expired before a tier
	// answered.
	KindTimeout ErrorKind = "timeout"
	// KindTierExhausted: every translator tier failed or was skipped
	// by an open breaker.
	KindTierExhausted ErrorKind = "tier_exhausted"
	// KindDraining: the server is shutting down and no longer admits
	// work.
	KindDraining ErrorKind = "draining"
	// KindInternal: everything else (execution failure on translated
	// SQL, encoding problems).
	KindInternal ErrorKind = "internal"
	// KindNotFound: the request names a schema no tenant serves (or a
	// route that does not exist under /v1/).
	KindNotFound ErrorKind = "unknown_schema"
	// KindOnboarding: the tenant exists but its first model is still
	// building; retry once GET /schemas/{name} reports ready.
	KindOnboarding ErrorKind = "onboarding"
)

// HTTPStatus maps the kind to its response status code.
func (k ErrorKind) HTTPStatus() int {
	switch k {
	case KindValidation:
		return http.StatusBadRequest
	case KindShed:
		return http.StatusTooManyRequests
	case KindTimeout:
		return http.StatusGatewayTimeout
	case KindTierExhausted:
		return http.StatusBadGateway
	case KindDraining, KindOnboarding:
		return http.StatusServiceUnavailable
	case KindNotFound:
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}

// apiError is the JSON error body: {"error":{"kind":...,"message":...}}.
type apiError struct {
	Kind    ErrorKind `json:"kind"`
	Message string    `json:"message"`
	// RetryAfterSec mirrors the Retry-After header on shed responses.
	RetryAfterSec int `json:"retry_after_sec,omitempty"`
}

type errorEnvelope struct {
	Error apiError `json:"error"`
}

// writeError renders one taxonomy error as JSON. retryAfterSec > 0
// additionally sets the Retry-After header (shed responses).
func writeError(w http.ResponseWriter, kind ErrorKind, retryAfterSec int, format string, args ...any) {
	if retryAfterSec > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSec))
	}
	writeBody(w, kind.HTTPStatus(), errorBody(kind, retryAfterSec, fmt.Sprintf(format, args...)))
}

// errorBody encodes one taxonomy error's JSON body.
func errorBody(kind ErrorKind, retryAfterSec int, msg string) []byte {
	return encodeJSON(errorEnvelope{Error: apiError{Kind: kind, Message: msg, RetryAfterSec: retryAfterSec}})
}

// writeBody writes an encoded JSON response with its status.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// A write failure means the client hung up; there is nobody left
	// to tell.
	_, _ = w.Write(body)
}

// encodeJSON is what a json.Encoder writes for v: its JSON and a
// newline. The serving layer's bodies always encode, so an error
// (which would leave the body empty) is deliberately dropped.
func encodeJSON(v any) []byte {
	b, _ := json.Marshal(v)
	return append(b, '\n')
}

// writeJSON writes v as a JSON response with its status.
func writeJSON(w http.ResponseWriter, status int, v any) { writeBody(w, status, encodeJSON(v)) }

// classify maps a translation failure onto the taxonomy. Validation
// and deadline failures are recognized by type; a critic rejection of
// every candidate is tier exhaustion carrying the per-candidate
// verdict summary in its message (never a generic internal error);
// everything else that came out of the tier chain is tier exhaustion
// too.
func classify(err error) ErrorKind {
	var verr *runtime.ValidationError
	var rerr *runtime.RejectedError
	switch {
	case errors.As(err, &verr):
		return KindValidation
	case errors.As(err, &rerr):
		return KindTierExhausted
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return KindTimeout
	default:
		return KindTierExhausted
	}
}
