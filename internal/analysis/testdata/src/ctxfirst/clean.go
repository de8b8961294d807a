package ctxfirst

import "context"

// StoreBlob is context-first: clean.
func StoreBlob(ctx context.Context, digest string, data []byte) error {
	<-ctx.Done()
	return nil
}

// Seed runs at setup, before any caller context exists; the annotation
// names it the exception, so it is clean.
func Seed(digest string, data []byte) error {
	//chlint:allow ctxfirst -- setup-time seeding has no caller context
	return StoreBlob(context.Background(), digest, data)
}
