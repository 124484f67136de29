package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"finepack/internal/des"
	"finepack/internal/experiments"
	"finepack/internal/faults"
)

func TestRunDispatchCheapExperiments(t *testing.T) {
	s := experiments.Quick()
	for _, name := range []string{"fig2", "tab2", "nvlink-fp", "alt-design"} {
		if err := run(s, name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestSVGOutput(t *testing.T) {
	dir := t.TempDir()
	svgDir = dir
	defer func() { svgDir = "" }()
	if err := run(experiments.Quick(), "fig2"); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "fig2.svg"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "<svg") || !strings.Contains(string(raw), "</svg>") {
		t.Fatal("not an SVG document")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run(experiments.Quick(), "fig99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestUsageListsEveryEntry: usage renders from the catalogue, so every
// entry shows up by name.
func TestUsageListsEveryEntry(t *testing.T) {
	var buf bytes.Buffer
	writeUsage(&buf)
	for _, e := range append(experiments.Catalogue(), experiments.Extras()...) {
		if !strings.Contains(buf.String(), "  "+e.Name+" ") {
			t.Errorf("usage does not list %q", e.Name)
		}
	}
}

// TestResolveEveryVerb resolves, without running, every catalogue and
// extra entry, the multi-entry verbs and the flag-driven verbs.
func TestResolveEveryVerb(t *testing.T) {
	verbs := []string{"all", "ablations"}
	for _, e := range append(experiments.Catalogue(), experiments.Extras()...) {
		verbs = append(verbs, e.Name)
	}
	for name := range flagVerbs {
		verbs = append(verbs, name)
	}
	for _, name := range verbs {
		if f, err := resolve(name); err != nil || f == nil {
			t.Errorf("resolve(%q) = %v", name, err)
		}
	}
}

func TestParseDegrade(t *testing.T) {
	cases := []struct {
		spec string
		want faults.Degradation
		err  bool
	}{
		{spec: "0:1:0.5", want: faults.Degradation{
			Link: faults.Link{Src: 0, Dst: 1}, BandwidthFraction: 0.5}},
		{spec: "*:2:0.25@10", want: faults.Degradation{
			Link: faults.Link{Src: -1, Dst: 2}, At: 10 * des.Microsecond,
			BandwidthFraction: 0.25}},
		{spec: "0:1", err: true},
		{spec: "x:1:0.5", err: true},
		{spec: "0:y:0.5", err: true},
		{spec: "0:1:zz", err: true},
		{spec: "0:1:0.5@oops", err: true},
		{spec: "0:1:0.5@-2", err: true},
	}
	for _, c := range cases {
		got, err := parseDegrade(c.spec)
		if c.err {
			if err == nil {
				t.Errorf("parseDegrade(%q) accepted", c.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseDegrade(%q): %v", c.spec, err)
		} else if got != c.want {
			t.Errorf("parseDegrade(%q) = %+v, want %+v", c.spec, got, c.want)
		}
	}
}

func TestBERSweepCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed CLI paths skipped in -short mode")
	}
	s := experiments.Quick()
	s.Cfg.Faults.Seed = 7
	if err := run(s, "ber-sweep"); err != nil {
		t.Fatal(err)
	}
}

func TestRunFiguresQuickScale(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed CLI paths skipped in -short mode")
	}
	s := experiments.Quick()
	chart = true
	defer func() { chart = false }()
	for _, name := range []string{"fig4", "fig9", "fig10", "fig11", "wc", "gps", "diag"} {
		if err := run(s, name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
