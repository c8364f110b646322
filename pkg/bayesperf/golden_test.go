//go:build amd64 && !amd64.v2

package bayesperf_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"bayesperf/pkg/bayesperf"
)

// batchGoldenHashes pins the FNV-64a hash of every RunBatch report's
// posterior (see hashBatchReport) per catalog/covariance/workload.
var batchGoldenHashes = map[string]uint64{
	"skylake/cov=false/phase=3":        0xaa27dc679d8311d9,
	"skylake/cov=false/phase=60":       0xc3e6628fbece3c8b,
	"skylake/cov=true/phase=3":         0x8780c1c381189366,
	"skylake/cov=true/phase=60":        0xdac78f485233ebc9,
	"power9/cov=false/phase=3":         0x8c8c641a11c285d3,
	"power9/cov=false/phase=60":        0x26033ce83bda8c9d,
	"power9/cov=true/phase=3":          0x8c8c641a11c285d3,
	"power9/cov=true/phase=60":         0x26033ce83bda8c9d,
	"zen.json/cov=false/phase=3":       0x4c2eff60b8fdf9ef,
	"zen.json/cov=false/phase=60":      0x5a5b87ee943f4971,
	"zen.json/cov=true/phase=3":        0xa071b29f53e585b2,
	"zen.json/cov=true/phase=60":       0xcdcbda7630465542,
	"neoverse.json/cov=false/phase=3":  0xe54a39c3a3ab5dba,
	"neoverse.json/cov=false/phase=60": 0xf61a38404ee54d29,
	"neoverse.json/cov=true/phase=3":   0x4aa4bc3d0c18aa2d,
	"neoverse.json/cov=true/phase=60":  0x2461a4c34a72854a,
}

// TestBatchReportGolden pins batch mode's output bit for bit across
// refactors: every event's posterior mean and std, every derived
// posterior's mean and std, and the iteration count and convergence flag,
// per catalog, with WithCovariance off and on, on a short and a default
// run. TestBuilderAndSpecSessionsBitIdentical compares two catalogs within
// one build and cannot see a change that moves both the same way; this
// test can. The build tag keeps it to amd64 at the default GOAMD64 level,
// where the compiler never fuses multiply-adds.
//
// When a change alters the output on purpose, regenerate the table: run
//
//	go test ./pkg/bayesperf -run TestBatchReportGolden -v
//
// and replace batchGoldenHashes with the logged entries, then say in the
// change description why the output moved.
func TestBatchReportGolden(t *testing.T) {
	for _, catName := range []string{"skylake", "power9", "zen.json", "neoverse.json"} {
		var opt bayesperf.Option
		if spec, ok := bayesperf.LookupCatalog(catName); ok {
			opt = bayesperf.WithSpec(spec)
		} else {
			opt = bayesperf.WithCatalogFile("../../examples/catalogs/" + catName)
		}
		for _, cov := range []bool{false, true} {
			sess, err := bayesperf.New(opt, bayesperf.WithCovariance(cov))
			if err != nil {
				t.Fatal(err)
			}
			for _, perPhase := range []int{3, 60} {
				key := fmt.Sprintf("%s/cov=%v/phase=%d", catName, cov, perPhase)
				src := bayesperf.NewSimSource(sess.Catalog(), bayesperf.DefaultWorkload(perPhase),
					bayesperf.DefaultMuxConfig(), 42)
				rep, err := sess.RunBatch(src)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				h := hashBatchReport(rep)
				t.Logf("%q: %#016x,", key, h)
				want, ok := batchGoldenHashes[key]
				if !ok {
					t.Errorf("%s: no recorded hash (got %#016x)", key, h)
					continue
				}
				if h != want {
					t.Errorf("%s: output hash %#016x, recorded %#016x", key, h, want)
				}
			}
		}
	}
}

// hashBatchReport hashes a batch report's posterior: each event's Mean and
// Std, each derived metric's Mean and Std, then Iters and Converged.
func hashBatchReport(rep *bayesperf.Report) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, ev := range rep.Events {
		word(math.Float64bits(ev.Mean))
		word(math.Float64bits(ev.Std))
	}
	for _, d := range rep.Derived {
		word(math.Float64bits(d.Mean))
		word(math.Float64bits(d.Std))
	}
	word(uint64(rep.Iters))
	if rep.Converged {
		word(1)
	} else {
		word(0)
	}
	return h.Sum64()
}
