package experiments

import (
	"context"
	"fmt"
	"io"
)

// WriteReport runs every experiment and writes one self-contained markdown
// report: the reproducibility artifact `finepack-sim report` produces.
func (s *Suite) WriteReport(w io.Writer) error {
	return s.WriteReportContext(context.Background(), w)
}

// WriteReportContext is WriteReport with cooperative cancellation: the
// context is checked before every section, so a canceled or
// deadline-expired caller (a drained daemon job, a user hitting ^C)
// aborts between experiment sweeps instead of completing the remaining
// figures silently. The emitted bytes are identical to WriteReport's for
// an uncanceled context.
func (s *Suite) WriteReportContext(ctx context.Context, w io.Writer) error {
	fmt.Fprintf(w, "# FinePack experiment report\n\n")
	fmt.Fprintf(w, "System: %d GPUs, %s (%.0f GB/s/dir), FinePack %dB sub-headers, %d-entry partitions.\n",
		s.NumGPUs, s.Cfg.Gen, s.Cfg.Gen.Bandwidth()/1e9,
		s.Cfg.FinePack.SubheaderBytes, s.Cfg.FinePack.QueueEntries)
	fmt.Fprintf(w, "Workloads at scale %.2f, %d iterations, seed %d.\n\n",
		s.Params.Scale, s.Params.Iterations, s.Params.Seed)

	// Sections run one at a time in catalogue order and this loop is the
	// only writer, so output bytes cannot drift from the serial path.
	for _, e := range Catalogue() {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("report: canceled before %q: %w", e.Heading, err)
		}
		out, err := e.Run(s)
		if err != nil {
			return fmt.Errorf("report: %s: %w", e.Heading, err)
		}
		fmt.Fprintf(w, "## %s\n\n```\n", e.Heading)
		out.Table.Render(w)
		fmt.Fprintf(w, "```\n\n")
	}
	return nil
}
