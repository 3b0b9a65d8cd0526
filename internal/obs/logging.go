package obs

import (
	"io"
	"log/slog"
	"sync/atomic"
)

// base is the process-wide structured logger every component logger
// derives from. It starts as a text handler on slog's default output
// and is replaced by InitLogging (cmd main functions).
var base atomic.Pointer[slog.Logger]

func init() {
	base.Store(slog.Default())
}

// InitLogging points the shared logger at w with the given level and
// format ("json" selects JSON lines, anything else the slog text
// handler) and returns it. Commands call this once at startup.
func InitLogging(w io.Writer, level slog.Level, format string) *slog.Logger {
	opts := &slog.HandlerOptions{Level: level}
	var h slog.Handler
	if format == "json" {
		h = slog.NewJSONHandler(w, opts)
	} else {
		h = slog.NewTextHandler(w, opts)
	}
	l := slog.New(h)
	base.Store(l)
	return l
}

// Logger returns the shared logger tagged with a component attribute
// ("serve", "live", "sarserve", ...), so every log line is
// attributable to the layer that emitted it.
func Logger(component string) *slog.Logger {
	return base.Load().With("component", component)
}
