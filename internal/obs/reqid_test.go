package obs

import (
	"context"
	"errors"
	"regexp"
	"strings"
	"testing"
)

func TestRequestIDs(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == b {
		t.Errorf("consecutive IDs collide: %q", a)
	}
	for _, id := range []string{a, b} {
		if !strings.Contains(id, "-") || len(id) < 10 {
			t.Errorf("ID %q does not look like prefix-sequence", id)
		}
	}
}

func TestRequestIDContext(t *testing.T) {
	ctx := WithRequestID(context.Background(), "req-42")
	if got := RequestIDFrom(ctx); got != "req-42" {
		t.Errorf("RequestIDFrom = %q, want req-42", got)
	}
	if got := RequestIDFrom(context.Background()); got != "" {
		t.Errorf("ID from clean context = %q, want empty", got)
	}
	if got := RequestIDFrom(nil); got != "" { //nolint:staticcheck // nil-safety is the contract under test
		t.Errorf("ID from nil context = %q, want empty", got)
	}
}

func TestNewReqPrefixEntropyPath(t *testing.T) {
	read := func(b []byte) (int, error) {
		for i := range b {
			b[i] = byte(0xa0 + i)
		}
		return len(b), nil
	}
	if got := newReqPrefix(read, 1234); got != "a0a1a2a3" {
		t.Fatalf("entropy prefix %q", got)
	}
}

func TestNewReqPrefixFallbackPath(t *testing.T) {
	broken := func([]byte) (int, error) { return 0, errors.New("no entropy") }
	hexRe := regexp.MustCompile(`^[0-9a-f]{8}$`)

	a := newReqPrefix(broken, 101)
	b := newReqPrefix(broken, 102)
	if !hexRe.MatchString(a) || !hexRe.MatchString(b) {
		t.Fatalf("fallback prefixes not 8-hex: %q / %q", a, b)
	}
	// The PID is mixed in, so concurrent fallback processes stay distinct
	// in aggregated logs; the same PID stays deterministic.
	if a == b {
		t.Fatalf("distinct PIDs produced the same fallback prefix %q", a)
	}
	if again := newReqPrefix(broken, 101); again != a {
		t.Fatalf("fallback not deterministic per PID: %q vs %q", again, a)
	}
}
