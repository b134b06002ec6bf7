package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"fmt"
	"os"
	"sync/atomic"
)

// Request IDs: every request entering the HTTP boundary gets an ID of the
// form "prefix-sequence" — an 8-hex-char per-process random prefix (so IDs
// from different processes or restarts never collide in aggregated logs)
// and a monotonically increasing sequence number. The ID travels in the
// request context, so handler logs, engine logs, error paths, and the root
// span's request_id attribute all tag the same request with the same ID.

var (
	reqSeq    atomic.Uint64
	reqPrefix = newReqPrefix(crand.Read, os.Getpid())
)

// newReqPrefix derives the per-process ID prefix from the given entropy
// reader. A broken entropy source shouldn't stop the server: the fallback
// hashes the PID (Knuth multiplicative), so concurrent fallback processes
// still get distinct prefixes in aggregated logs.
func newReqPrefix(read func([]byte) (int, error), pid int) string {
	var b [4]byte
	if _, err := read(b[:]); err != nil {
		return fmt.Sprintf("%08x", uint32(pid)*2654435761)
	}
	return hex.EncodeToString(b[:])
}

// NewRequestID returns a process-unique request ID.
func NewRequestID() string {
	return fmt.Sprintf("%s-%06x", reqPrefix, reqSeq.Add(1))
}

// reqIDKey is the private context key for the request ID.
type reqIDKey struct{}

// WithRequestID returns a context carrying the request ID.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, reqIDKey{}, id)
}

// RequestIDFrom returns the request ID carried by ctx, or "" if none.
func RequestIDFrom(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(reqIDKey{}).(string)
	return id
}
