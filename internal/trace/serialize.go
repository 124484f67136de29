package trace

import (
	"encoding/json"
	"io"
)

// SaveJSON writes the trace as indented JSON: an interoperability export
// for non-Go tooling. The native on-disk encoding is the chunked v2
// stream (internal/tracestream).
func (t *Trace) SaveJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}
