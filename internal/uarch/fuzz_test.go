package uarch_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bayesperf/internal/uarch"
)

// FuzzLoadSpec feeds arbitrary bytes to LoadSpec, the entry point for
// catalogs read from untrusted JSON. Neither LoadSpec nor Spec.Catalog may
// panic, and a spec that builds a catalog must reach a fixed point after
// one round trip: Catalog.Spec, then Catalog, then Spec again gives a
// reflect.DeepEqual spec. The seed corpus, which runs with every go test,
// holds the example catalogs, every registered spec as Save writes it, the
// malformed Skylake specs of TestSpecCatalogErrors and a spec with an
// unknown field.
func FuzzLoadSpec(f *testing.F) {
	examples, err := filepath.Glob(filepath.Join("..", "..", "examples", "catalogs", "*.json"))
	if err != nil || len(examples) == 0 {
		f.Fatalf("no example catalogs: %v", err)
	}
	for _, path := range examples {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	save := func(s uarch.Spec) {
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, name := range uarch.Names() {
		s, _ := uarch.Lookup(name)
		save(s)
	}
	for _, tc := range malformedSpecs {
		s := skylakeSpec(f)
		tc.mutate(&s)
		save(s)
	}
	f.Add([]byte(`{"arch":"x","prog_counterz":4}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := uarch.LoadSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		cat, err := spec.Catalog()
		if err != nil {
			return
		}
		first, err := cat.Spec()
		if err != nil {
			t.Fatalf("a catalog built from a spec has no spec: %v", err)
		}
		rebuilt, err := first.Catalog()
		if err != nil {
			t.Fatalf("the spec of a valid catalog does not build: %v\nspec %+v", err, first)
		}
		second, err := rebuilt.Spec()
		if err != nil {
			t.Fatalf("a rebuilt catalog has no spec: %v", err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("spec is not a fixed point after one round trip:\nfirst  %+v\nsecond %+v", first, second)
		}
	})
}
