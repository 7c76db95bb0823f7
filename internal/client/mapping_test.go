package client

import (
	"errors"
	"fmt"
	"strings"
	"testing"

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
		{httpapi.CodeBadRequest, ErrBadRequest},
		{httpapi.CodeDraining, ErrDraining},
		{httpapi.CodeDuplicate, ErrDuplicate},
		{httpapi.CodeSaturated, ErrSaturated},
		{httpapi.CodeExhausted, ErrExhausted},
		{httpapi.CodeClosed, ErrClosed},
		{httpapi.CodeFailed, ErrFailed},
		{httpapi.CodeOrphaned, ErrOrphaned},
		{httpapi.CodeNotFound, ErrNotFound},
		{httpapi.CodeShutdown, ErrShutdown},
		{httpapi.CodeUnreachable, ErrUnreachable},
		{httpapi.CodeInternal, ErrInternal},
	}
	seen := map[string]bool{}
	for _, tc := range cases {
		if seen[tc.code] {
			t.Fatalf("duplicate slug %q in the table", tc.code)
		}
		seen[tc.code] = true
		err := ErrorFromCode(tc.code, "boom")
		if !errors.Is(err, tc.want) {
			t.Errorf("ErrorFromCode(%q) = %v, want errors.Is %v", tc.code, err, tc.want)
		}
		if !strings.Contains(err.Error(), "boom") {
			t.Errorf("ErrorFromCode(%q) dropped the message: %v", tc.code, err)
		}
		if got := CodeFromError(err); got != tc.code {
			t.Errorf("CodeFromError(ErrorFromCode(%q)) = %q: round trip is not the identity", tc.code, got)
		}
		// Wrapping must not change the classification.
		if got := CodeFromError(fmt.Errorf("wrapped: %w", err)); got != tc.code {
			t.Errorf("CodeFromError(wrapped %q) = %q", tc.code, got)
		}
	}
}

// TestCodeFromErrorTierSentinels: the daemon and keystream tiers mint
// their own sentinels for facts the cluster also names; both spellings
// must travel as the same wire code.
func TestCodeFromErrorTierSentinels(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{service.ErrNotFound, httpapi.CodeNotFound},
		{service.ErrShutdown, httpapi.CodeShutdown},
		{keystream.ErrClosed, httpapi.CodeClosed},
		{service.ErrNoStream, httpapi.CodeBadRequest},
		{errors.New("anything unclassified"), httpapi.CodeInternal},
		// A dead session's error wraps both the not-found fact (the
		// registry dropped it) and the failure fact; failed must win the
		// classification or clients lose the death signal.
		{errors.Join(service.ErrNotFound, service.ErrFailed), httpapi.CodeFailed},
		// Likewise failed + the zeroized pool's closed sentinel.
		{fmt.Errorf("%w: %w", service.ErrFailed, keypool.ErrClosed), httpapi.CodeFailed},
	}
	for _, tc := range cases {
		if got := CodeFromError(tc.err); got != tc.want {
			t.Errorf("CodeFromError(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
}

// TestErrorFromCodeIdempotent: a message that already crossed a tier
// arrives with the sentinel's text as its prefix; decoding it again
// must not stack the prefix (worker → coordinator → gate → client
// would otherwise triple it).
func TestErrorFromCodeIdempotent(t *testing.T) {
	first := ErrorFromCode(httpapi.CodeNotFound, "9999")
	second := ErrorFromCode(httpapi.CodeNotFound, first.Error())
	third := ErrorFromCode(httpapi.CodeNotFound, second.Error())
	if !errors.Is(third, ErrNotFound) {
		t.Fatalf("re-decoded error lost its type: %v", third)
	}
	if third.Error() != first.Error() {
		t.Fatalf("message grew across hops: %q -> %q", first, third)
	}
	if n := strings.Count(third.Error(), ErrNotFound.Error()); n != 1 {
		t.Fatalf("sentinel text appears %d times in %q, want once", n, third)
	}

	// A message that is nothing but the sentinel text stays well-formed.
	bare := ErrorFromCode(httpapi.CodeDraining, ErrDraining.Error())
	if !errors.Is(bare, ErrDraining) || strings.Count(bare.Error(), ErrDraining.Error()) != 1 {
		t.Fatalf("bare sentinel message mangled: %v", bare)
	}
}

// TestErrorFromCodeUnknownSlug: a newer server's slug degrades to an
// opaque error that still carries both the code and the message.
func TestErrorFromCodeUnknownSlug(t *testing.T) {
	err := ErrorFromCode("flux_capacitor", "overcharged")
	for _, known := range []error{
		ErrBadRequest, ErrDraining, ErrDuplicate, ErrSaturated, ErrExhausted,
		ErrClosed, ErrFailed, ErrOrphaned, ErrNotFound, ErrShutdown,
		ErrUnreachable, ErrInternal,
	} {
		if errors.Is(err, known) {
			t.Fatalf("unknown slug classified as %v", known)
		}
	}
	if !strings.Contains(err.Error(), "flux_capacitor") || !strings.Contains(err.Error(), "overcharged") {
		t.Fatalf("unknown-slug error dropped context: %v", err)
	}
}
