package tracestream

import (
	"io"
	"os"

	"finepack/internal/trace"
)

// CopySource streams every iteration of src into w as a v2 chunked
// stream. This is the universal "save as v2": the source can be an
// in-memory trace (trace.NewSliceSource), another v2 file, or a
// synthesizer — memory stays O(window) throughout.
func CopySource(w io.Writer, src trace.IterationSource) error {
	if err := src.Reset(); err != nil {
		return err
	}
	sw, err := NewWriter(w, src.Meta())
	if err != nil {
		return err
	}
	for {
		it, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := sw.WriteIteration(it); err != nil {
			return err
		}
	}
	return sw.Close()
}

// WriteTrace saves a materialized trace as a v2 stream.
func WriteTrace(w io.Writer, tr *trace.Trace) error {
	return CopySource(w, trace.NewSliceSource(tr))
}

// WriteFile writes a source to path as a v2 stream, atomically enough
// for trace artifacts: errors unlink the partial file rather than
// leaving a torn (and thus unreadable) stream behind.
func WriteFile(path string, src trace.IterationSource) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := CopySource(f, src); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(path)
		return err
	}
	return nil
}
