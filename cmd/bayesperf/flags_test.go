package main

import (
	"flag"
	"strings"
	"testing"

	"bayesperf/internal/uarch"
)

func parseShared(t *testing.T, args ...string) *sharedFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	sf := addSharedFlags(fs, 100)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return sf
}

// TestResolveCatalogsUnknownArchListsChoices: the -arch error must
// enumerate the registry's valid names, from one shared code path for both
// subcommands.
func TestResolveCatalogsUnknownArchListsChoices(t *testing.T) {
	sf := parseShared(t, "-arch", "itanium")
	_, err := resolveCatalogs(sf)
	if err == nil {
		t.Fatal("unknown arch accepted")
	}
	msg := err.Error()
	for _, want := range append([]string{"itanium", "all"}, uarch.Names()...) {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not mention %q", msg, want)
		}
	}
}

// TestResolveCatalogsRegistry: named and 'all' resolution go through the
// registry, case-insensitively.
func TestResolveCatalogsRegistry(t *testing.T) {
	cats, err := resolveCatalogs(parseShared(t, "-arch", "SkyLake"))
	if err != nil || len(cats) != 1 || cats[0].Arch != "x86_64-skylake" {
		t.Fatalf("arch skylake resolved to %v (%v)", cats, err)
	}
	all, err := resolveCatalogs(parseShared(t))
	if err != nil || len(all) != len(uarch.Names()) {
		t.Fatalf("arch all resolved to %d catalogs (%v), want %d", len(all), err, len(uarch.Names()))
	}
}

// TestResolveCatalogsFile: -catalog loads a JSON spec file, overriding
// -arch, and validates ground-truth models.
func TestResolveCatalogsFile(t *testing.T) {
	cats, err := resolveCatalogs(parseShared(t, "-catalog", "../../examples/catalogs/zen.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cats) != 1 || cats[0].Arch != "x86_64-zen3" {
		t.Fatalf("zen spec resolved to %v", cats)
	}
	if _, err := resolveCatalogs(parseShared(t, "-catalog", "/no/such/file.json")); err == nil {
		t.Error("missing catalog file accepted")
	}
}

// TestResolveCatalogsBadIntervals: the shared interval validation rejects
// non-positive values with an error (the subcommands turn it into exit 2).
func TestResolveCatalogsBadIntervals(t *testing.T) {
	if _, err := resolveCatalogs(parseShared(t, "-intervals", "0")); err == nil {
		t.Error("zero intervals accepted")
	}
}

// TestMuxConfigFlagErrors: an observation-model flag outside its domain is
// an error naming the flag (the subcommands exit 2 on it): -noise -1 would
// mirror the noise draws, and -outliers 2 would corrupt every reading. The
// defaults and the stream mode's outlier knob at 2% stay valid.
func TestMuxConfigFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		flag     string
		sf       *sharedFlags
		outliers float64 // the parsed stream-only -outliers value
	}{
		{"-noise", parseShared(t, "-noise", "-1"), 0},
		{"-noise", parseShared(t, "-noise", "NaN"), 0},
		{"-outliers", parseShared(t), 2},
		{"-outliers", parseShared(t), -0.5},
	} {
		if _, err := tc.sf.muxConfig(true, tc.outliers); err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%s (noise %v, outliers %v): err %v, want an error naming %s",
				tc.flag, *tc.sf.noise, tc.outliers, err, tc.flag)
		}
	}
	for _, outliers := range []float64{0, 0.02} {
		if _, err := parseShared(t).muxConfig(true, outliers); err != nil {
			t.Errorf("default flags with -outliers %v rejected: %v", outliers, err)
		}
	}
}
