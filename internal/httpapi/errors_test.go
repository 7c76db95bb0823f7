package httpapi_test

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/httpapi"
	"repro/internal/keypool"
	"repro/internal/keystream"
	"repro/internal/service"
)

// TestCodeErrorRoundTrip pins the envelope slug ↔ typed error mapping:
// every slug decodes to a typed error that encodes back to the same
// slug, for all twelve codes of the /v1 envelope.
func TestCodeErrorRoundTrip(t *testing.T) {
	cases := []struct {
		code string
		want error
	}{
		{httpapi.CodeBadRequest, client.ErrBadRequest},
		{httpapi.CodeDraining, client.ErrDraining},
		{httpapi.CodeDuplicate, client.ErrDuplicate},
		{httpapi.CodeSaturated, client.ErrSaturated},
		{httpapi.CodeExhausted, client.ErrExhausted},
		{httpapi.CodeClosed, client.ErrClosed},
		{httpapi.CodeFailed, client.ErrFailed},
		{httpapi.CodeOrphaned, client.ErrOrphaned},
		{httpapi.CodeNotFound, client.ErrNotFound},
		{httpapi.CodeShutdown, client.ErrShutdown},
		{httpapi.CodeUnreachable, client.ErrUnreachable},
		{httpapi.CodeInternal, client.ErrInternal},
	}
	seen := map[string]bool{}
	for _, tc := range cases {
		if seen[tc.code] {
			t.Fatalf("duplicate slug %q in the table", tc.code)
		}
		seen[tc.code] = true
		err := httpapi.ErrorFromCode(tc.code, "boom")
		if !errors.Is(err, tc.want) {
			t.Errorf("ErrorFromCode(%q) = %v, want errors.Is %v", tc.code, err, tc.want)
		}
		if !strings.Contains(err.Error(), "boom") {
			t.Errorf("ErrorFromCode(%q) dropped the message: %v", tc.code, err)
		}
		if got, _ := httpapi.CodeOf(err); got != tc.code {
			t.Errorf("CodeOf(ErrorFromCode(%q)) = %q: round trip is not the identity", tc.code, got)
		}
		// Wrapping must not change the classification.
		if got, _ := httpapi.CodeOf(fmt.Errorf("wrapped: %w", err)); got != tc.code {
			t.Errorf("CodeOf(wrapped %q) = %q", tc.code, got)
		}
	}
}

// TestCodeOfTierSentinels: the daemon and keystream tiers mint their
// own sentinels for facts the cluster also names; both spellings must
// travel as the same wire code.
func TestCodeOfTierSentinels(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{service.ErrNotFound, httpapi.CodeNotFound},
		{service.ErrShutdown, httpapi.CodeShutdown},
		{keystream.ErrClosed, httpapi.CodeClosed},
		{errors.New("anything unclassified"), httpapi.CodeInternal},
		// A dead session's error wraps both the not-found fact (the
		// registry dropped it) and the failure fact; failed must win the
		// classification or clients lose the death signal.
		{errors.Join(service.ErrNotFound, service.ErrFailed), httpapi.CodeFailed},
		// Likewise failed + the zeroized pool's closed sentinel.
		{fmt.Errorf("%w: %w", service.ErrFailed, keypool.ErrClosed), httpapi.CodeFailed},
	}
	for _, tc := range cases {
		if got, _ := httpapi.CodeOf(tc.err); got != tc.want {
			t.Errorf("CodeOf(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
}

// TestWriteErrorStatus pins each row of the contract on the wire:
// WriteError answers every error of the row with the row's status and
// code, and DecodeError reads the response back to an error matching
// it. An unclassified error answers internal/500.
func TestWriteErrorStatus(t *testing.T) {
	rows := []struct {
		code   string
		status int
		errs   []error
	}{
		{httpapi.CodeFailed, http.StatusGone, []error{service.ErrFailed}},
		{httpapi.CodeDraining, http.StatusServiceUnavailable, []error{cluster.ErrDraining}},
		{httpapi.CodeDuplicate, http.StatusConflict, []error{cluster.ErrDuplicate}},
		{httpapi.CodeSaturated, http.StatusTooManyRequests, []error{service.ErrSaturated, cluster.ErrNoWorkers}},
		{httpapi.CodeExhausted, http.StatusConflict, []error{keypool.ErrExhausted}},
		{httpapi.CodeClosed, http.StatusGone, []error{keypool.ErrClosed, keystream.ErrClosed}},
		{httpapi.CodeOrphaned, http.StatusServiceUnavailable, []error{cluster.ErrOrphaned}},
		{httpapi.CodeNotFound, http.StatusNotFound, []error{cluster.ErrNotFound, service.ErrNotFound}},
		{httpapi.CodeShutdown, http.StatusServiceUnavailable, []error{cluster.ErrShutdown, service.ErrShutdown}},
		{httpapi.CodeUnreachable, http.StatusBadGateway, []error{cluster.ErrUnreachable}},
		{httpapi.CodeBadRequest, http.StatusBadRequest, []error{client.ErrBadRequest}},
		{httpapi.CodeInternal, http.StatusInternalServerError, []error{client.ErrInternal, errors.New("unclassified")}},
	}
	for _, row := range rows {
		for _, e := range row.errs {
			rec := httptest.NewRecorder()
			httpapi.WriteError(rec, fmt.Errorf("op: %w", e))
			resp := rec.Result()
			if resp.StatusCode != row.status {
				t.Errorf("WriteError(%v): status %d, want %d", e, resp.StatusCode, row.status)
			}
			back := httpapi.DecodeError(resp)
			if code, _ := httpapi.CodeOf(back); code != row.code {
				t.Errorf("WriteError(%v) decodes to %v (code %q), want code %q", e, back, code, row.code)
			}
		}
	}
}

// TestDecodeErrorEmptyBody: an error response with no envelope still
// names its HTTP status.
func TestDecodeErrorEmptyBody(t *testing.T) {
	resp := &http.Response{
		StatusCode: http.StatusInternalServerError,
		Status:     "500 Internal Server Error",
		Body:       io.NopCloser(strings.NewReader("")),
	}
	if err := httpapi.DecodeError(resp); err == nil || !strings.Contains(err.Error(), "500") {
		t.Fatalf("empty 500 decoded to %v, want the status in the text", err)
	}
}

// TestErrorFromCodeIdempotent: a message that already crossed a tier
// arrives with the sentinel's text as its prefix; decoding it again
// must not stack the prefix (worker → coordinator → gate → client
// would otherwise triple it).
func TestErrorFromCodeIdempotent(t *testing.T) {
	first := httpapi.ErrorFromCode(httpapi.CodeNotFound, "9999")
	second := httpapi.ErrorFromCode(httpapi.CodeNotFound, first.Error())
	third := httpapi.ErrorFromCode(httpapi.CodeNotFound, second.Error())
	if !errors.Is(third, client.ErrNotFound) {
		t.Fatalf("re-decoded error lost its type: %v", third)
	}
	if third.Error() != first.Error() {
		t.Fatalf("message grew across hops: %q -> %q", first, third)
	}
	if n := strings.Count(third.Error(), client.ErrNotFound.Error()); n != 1 {
		t.Fatalf("sentinel text appears %d times in %q, want once", n, third)
	}

	// A message that is nothing but the sentinel text stays well-formed.
	bare := httpapi.ErrorFromCode(httpapi.CodeDraining, client.ErrDraining.Error())
	if !errors.Is(bare, client.ErrDraining) || strings.Count(bare.Error(), client.ErrDraining.Error()) != 1 {
		t.Fatalf("bare sentinel message mangled: %v", bare)
	}
}

// TestErrorFromCodeStripsEveryRowPrefix: a daemon's own not-found text
// (service's spelling of the fact) decodes to the cluster's sentinel
// without the daemon's prefix: "cluster: no such session: 999", not
// "cluster: no such session: service: no such session: 999". The same
// holds for every row with more than one error.
func TestErrorFromCodeStripsEveryRowPrefix(t *testing.T) {
	for _, tc := range []struct {
		code      string
		raised    error // the error the server raised
		sentinel  error // what the code decodes to
		typedByIs error // what errors.Is must still match
	}{
		{httpapi.CodeNotFound, service.ErrNotFound, httpapi.ErrClusterNotFound, client.ErrNotFound},
		{httpapi.CodeShutdown, service.ErrShutdown, httpapi.ErrClusterShutdown, client.ErrShutdown},
		{httpapi.CodeSaturated, httpapi.ErrNoWorkers, httpapi.ErrSaturated, client.ErrSaturated},
		{httpapi.CodeClosed, keystream.ErrClosed, keypool.ErrClosed, client.ErrClosed},
	} {
		got := httpapi.ErrorFromCode(tc.code, fmt.Errorf("%w: 999", tc.raised).Error())
		if want := tc.sentinel.Error() + ": 999"; got.Error() != want {
			t.Errorf("ErrorFromCode(%q, %q) = %q, want %q", tc.code, tc.raised, got, want)
		}
		if !errors.Is(got, tc.typedByIs) {
			t.Errorf("ErrorFromCode(%q) = %v, want errors.Is %v", tc.code, got, tc.typedByIs)
		}
	}
}

// TestErrorFromCodeUnknownSlug: a newer server's slug degrades to an
// opaque error that still carries both the code and the message.
func TestErrorFromCodeUnknownSlug(t *testing.T) {
	err := httpapi.ErrorFromCode("flux_capacitor", "overcharged")
	for _, known := range []error{
		client.ErrBadRequest, client.ErrDraining, client.ErrDuplicate, client.ErrSaturated,
		client.ErrExhausted, client.ErrClosed, client.ErrFailed, client.ErrOrphaned,
		client.ErrNotFound, client.ErrShutdown, client.ErrUnreachable, client.ErrInternal,
	} {
		if errors.Is(err, known) {
			t.Fatalf("unknown slug classified as %v", known)
		}
	}
	if !strings.Contains(err.Error(), "flux_capacitor") || !strings.Contains(err.Error(), "overcharged") {
		t.Fatalf("unknown-slug error dropped context: %v", err)
	}
}
