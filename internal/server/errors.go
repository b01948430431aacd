// Structured errors of the v1 wire API. Every non-2xx response (and
// every in-stream session error record) carries a stable
// {"code","message","detail"} shape; the code table is documented in
// docs/API.md and pinned by the wire-compat fixtures.
package server

import (
	"errors"
	"fmt"
	"net/http"
)

// Stable error codes shared by every /v1/* endpoint, including the
// session stream records. Codes are the machine-readable contract;
// messages and details may change wording freely.
const (
	CodeBadRequest      = "bad_request"
	CodeInvalidImage    = "invalid_image"
	CodeUnknownKernel   = "unknown_kernel"
	CodeUnknownModel    = "unknown_model"
	CodePayloadTooLarge = "payload_too_large"
	CodeOverloaded      = "overloaded"
	CodeDraining        = "draining"
	CodeNotImplemented  = "not_implemented"
	CodeClientClosed    = "client_closed"
	CodeSessionNotFound = "session_not_found"
	CodeSessionBusy     = "session_busy"
	CodeSessionClosed   = "session_closed"
	CodeSessionLimit    = "session_limit"
	CodeFrameFailed     = "frame_failed"
	CodeInternal        = "internal"
	// CodeDeadlineExceeded means the request outlived the configured
	// per-request deadline (504). A frame still waiting in the
	// micro-batcher is dropped at flush; one whose batch has started
	// completes, but the response is gone.
	CodeDeadlineExceeded = "deadline_exceeded"
	// CodeDegradedUnavailable means the accelerator is serving degraded
	// output (retired rows / unrecovered ABFT detections) and the server
	// is configured to reject rather than flag (503 + Retry-After).
	CodeDegradedUnavailable = "degraded_unavailable"
	// CodeShedOverload means the tiered load shedder dropped the request
	// (429 for tier-1/2 sheds, 503 when everything is being shed).
	CodeShedOverload = "shed_overload"
)

// apiError is the typed error handlers return; writeError projects it
// onto the wire shape. The status is carried alongside the code so one
// value answers both "what HTTP status" and "what machine code".
type apiError struct {
	status int
	code   string
	msg    string
	detail string
}

// Error renders message and detail as one line (the legacy "error"
// string old clients keep decoding).
func (e *apiError) Error() string {
	if e.detail != "" {
		return e.msg + ": " + e.detail
	}
	return e.msg
}

// apiErr builds a typed error with a formatted message and no detail.
func apiErr(status int, code, format string, args ...any) *apiError {
	return &apiError{status: status, code: code, msg: fmt.Sprintf(format, args...)}
}

// wrapErr builds a typed error whose detail is the underlying error.
func wrapErr(status int, code, msg string, err error) *apiError {
	return &apiError{status: status, code: code, msg: msg, detail: err.Error()}
}

// codeForStatus maps a bare status to its default code, for errors that
// reach writeError untyped.
func codeForStatus(status int) string {
	switch status {
	case http.StatusGatewayTimeout:
		return CodeDeadlineExceeded
	case http.StatusRequestEntityTooLarge:
		return CodePayloadTooLarge
	case http.StatusTooManyRequests:
		return CodeOverloaded
	case http.StatusServiceUnavailable:
		return CodeDraining
	case http.StatusNotImplemented:
		return CodeNotImplemented
	case http.StatusNotFound:
		return CodeSessionNotFound
	case statusClientClosed:
		return CodeClientClosed
	case http.StatusInternalServerError:
		return CodeInternal
	default:
		return CodeBadRequest
	}
}

// errorBody projects an error onto the wire shape for the given status.
func errorBody(status int, err error) ErrorResponse {
	var ae *apiError
	if errors.As(err, &ae) {
		return ErrorResponse{Code: ae.code, Message: ae.msg, Detail: ae.detail, Error: ae.Error()}
	}
	return ErrorResponse{Code: codeForStatus(status), Message: err.Error(), Error: err.Error()}
}

// errStatus extracts an apiError's status, defaulting otherwise.
func errStatus(err error, fallback int) int {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.status
	}
	return fallback
}
