package obsv

import (
	"context"
	"fmt"
	"io"
	"log/slog"
)

// slog.go is the structured-logging half of the observability layer: a
// shared logger constructor (text or JSON lines) and the job-scoped
// correlation ID that rides the context from the HTTP request through the
// jobs layer into the pipeline ranks, so every record of one job's
// lifetime carries the same "job" attribute regardless of which layer
// emitted it.

// ctxKey is the private context-key namespace.
type ctxKey int

const jobIDKey ctxKey = iota

// WithJobID returns a context carrying the job correlation ID. The jobs
// layer stamps it when a job starts running; every logger built by
// NewLogger extracts it automatically.
func WithJobID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, jobIDKey, id)
}

// JobIDFrom returns the context's job correlation ID ("" when absent).
func JobIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(jobIDKey).(string)
	return id
}

// jobIDHandler decorates a slog.Handler with the context's job ID.
type jobIDHandler struct {
	slog.Handler
}

func (h jobIDHandler) Handle(ctx context.Context, r slog.Record) error {
	if id := JobIDFrom(ctx); id != "" {
		r.AddAttrs(slog.String("job", id))
	}
	return h.Handler.Handle(ctx, r)
}

func (h jobIDHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return jobIDHandler{h.Handler.WithAttrs(attrs)}
}

func (h jobIDHandler) WithGroup(name string) slog.Handler {
	return jobIDHandler{h.Handler.WithGroup(name)}
}

// NewLogger builds the service logger: format is "text" (the default for
// terminals) or "json" (one object per line, for log aggregators). Every
// record logged with a context that passed through WithJobID carries the
// job ID as a "job" attribute.
func NewLogger(w io.Writer, format string, level slog.Level) (*slog.Logger, error) {
	opts := &slog.HandlerOptions{Level: level}
	var h slog.Handler
	switch format {
	case "", "text":
		h = slog.NewTextHandler(w, opts)
	case "json":
		h = slog.NewJSONHandler(w, opts)
	default:
		return nil, fmt.Errorf("obsv: unknown log format %q (text or json)", format)
	}
	return slog.New(jobIDHandler{h}), nil
}
