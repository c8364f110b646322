package uarch

// This file holds the two concrete CPU catalogs promised by the package doc:
// an Intel Skylake-like x86_64 core and an IBM Power9-like ppc64 core. Event
// names follow the vendor naming schemes (perfmon / POWER9 PMU guide) closely
// enough to be recognizable, but the catalogs model idealized cores: every
// invariant declared here holds exactly in the simulated ground truth
// produced by internal/measure.

// Skylake returns the catalog for an Intel Skylake-like x86_64 core:
// 3 fixed counters (INST_RETIRED.ANY, CPU_CLK_UNHALTED.THREAD,
// CPU_CLK_UNHALTED.REF_TSC), 4 programmable counters, and 2 off-core
// response MSRs. The invariant library encodes the retirement breakdown,
// the load cache-hierarchy flow, and the off-core response consistency
// relations (§3–§4 of the paper).
func Skylake() *Catalog {
	c := newCatalog("x86_64-skylake", 3, 4, 2)

	// Fixed-counter events: always counted, never multiplexed.
	inst := c.fixed("INST_RETIRED.ANY", 0, "retired instructions (fixed ctr 0)")
	c.fixed("CPU_CLK_UNHALTED.THREAD", 1, "core cycles while not halted (fixed ctr 1)")
	c.fixed("CPU_CLK_UNHALTED.REF_TSC", 2, "reference-TSC cycles while not halted (fixed ctr 2)")

	// Programmable events. Masks model real placement constraints: most
	// events can go on any of the 4 counters; a few are restricted.
	loads := c.prog("MEM_INST_RETIRED.ALL_LOADS", anyCtr(4), "retired load instructions")
	stores := c.prog("MEM_INST_RETIRED.ALL_STORES", anyCtr(4), "retired store instructions")
	branches := c.prog("BR_INST_RETIRED.ALL_BRANCHES", anyCtr(4), "retired branch instructions")
	misp := c.prog("BR_MISP_RETIRED.ALL_BRANCHES", anyCtr(4), "retired mispredicted branches")
	pred := c.prog("BR_PRED_RETIRED.ALL_BRANCHES", anyCtr(4), "retired correctly predicted branches")
	other := c.prog("INST_RETIRED.OTHER", anyCtr(4), "retired instructions that are neither loads, stores nor branches")
	l1Hit := c.prog("MEM_LOAD_RETIRED.L1_HIT", anyCtr(4), "retired loads that hit the L1 data cache")
	l1Miss := c.prog("MEM_LOAD_RETIRED.L1_MISS", anyCtr(4), "retired loads that missed the L1 data cache")
	l2Hit := c.prog("MEM_LOAD_RETIRED.L2_HIT", anyCtr(4), "retired loads that hit the L2 cache")
	l3Hit := c.prog("MEM_LOAD_RETIRED.L3_HIT", anyCtr(4), "retired loads that hit the shared L3 cache")
	l3Miss := c.prog("MEM_LOAD_RETIRED.L3_MISS", anyCtr(4), "retired loads that missed the L3 cache (DRAM access)")
	// The classic Haswell/Broadwell-style restriction cited in §4: this
	// event can only be counted on one specific programmable counter.
	c.prog("L1D_PEND_MISS.PENDING", oneCtr(2), "cycles with outstanding L1D misses (counter 2 only)")
	// Off-core response events consume an auxiliary MSR besides a counter
	// (§4), and are restricted to the low two counters.
	offRd := c.progMSR("OFFCORE_RESPONSE.DEMAND_DATA_RD", loCtr(2), "demand data reads that reached the uncore (needs MSR)")
	offL3Miss := c.progMSR("OFFCORE_RESPONSE.DEMAND_DATA_RD.L3_MISS", loCtr(2), "demand data reads that missed the L3 (needs MSR)")

	// Microarchitectural invariants (Σ coeff·event = 0, written as
	// lhs − Σ rhs). Tolerances express how exactly each holds on the
	// idealized core; they become factor noise scales in the graph.
	c.relation("retirement_breakdown", 1e-3,
		"INST_RETIRED = LOADS + STORES + BRANCHES + OTHER",
		Term{inst, 1}, Term{loads, -1}, Term{stores, -1}, Term{branches, -1}, Term{other, -1})
	c.relation("l1_load_flow", 1e-3,
		"ALL_LOADS = L1_HIT + L1_MISS",
		Term{loads, 1}, Term{l1Hit, -1}, Term{l1Miss, -1})
	c.relation("cache_hierarchy_flow", 1e-3,
		"L1_MISS = L2_HIT + L3_HIT + L3_MISS",
		Term{l1Miss, 1}, Term{l2Hit, -1}, Term{l3Hit, -1}, Term{l3Miss, -1})
	c.relation("branch_breakdown", 1e-3,
		"ALL_BRANCHES = MISPREDICTED + PREDICTED",
		Term{branches, 1}, Term{misp, -1}, Term{pred, -1})
	c.relation("offcore_demand_rd", 2e-3,
		"OFFCORE demand reads = loads served at or beyond L3",
		Term{offRd, 1}, Term{l3Hit, -1}, Term{l3Miss, -1})
	c.relation("offcore_l3_miss", 2e-3,
		"OFFCORE demand-read L3 misses = retired load L3 misses",
		Term{offL3Miss, 1}, Term{l3Miss, -1})

	// Derived events (§2 "Errors in Derived Events", §6.2). Every kind has
	// an exact gradient, so posterior uncertainty propagates through the
	// delta method without finite differences. Backend_Bound is a
	// KindLinearRatio with idealized latency weights: L2 12c, L3 44c, DRAM
	// 200c, over 4-wide issue slots.
	cyc := c.MustEvent("CPU_CLK_UNHALTED.THREAD")
	c.derivedRatio("IPC", "instructions per core cycle", inst, cyc, 1)
	c.derivedRatio("L3_MPKI", "L3 misses per kilo-instruction", l3Miss, inst, 1000)
	c.derivedRatio("Branch_Misp_Rate", "mispredictions per retired branch", misp, branches, 1)
	c.derivedLinear("Backend_Bound", "fraction of cycle-slots stalled behind memory (top-down proxy: weighted L2/L3/DRAM load latency over total slots)",
		[]EventID{l2Hit, l3Hit, l3Miss, cyc},
		[]float64{12, 44, 200, 0},
		[]float64{0, 0, 0, 4})

	// Ground-truth semantics: each event as a linear combination of the
	// simulator's machine primitives (internal/measure).
	c.setModels(map[string]map[string]float64{
		"INST_RETIRED.ANY":                        prim("inst"),
		"CPU_CLK_UNHALTED.THREAD":                 prim("cycles"),
		"CPU_CLK_UNHALTED.REF_TSC":                prim("ref_cycles"),
		"MEM_INST_RETIRED.ALL_LOADS":              prim("loads"),
		"MEM_INST_RETIRED.ALL_STORES":             prim("stores"),
		"BR_INST_RETIRED.ALL_BRANCHES":            prim("branches"),
		"BR_MISP_RETIRED.ALL_BRANCHES":            prim("misp"),
		"BR_PRED_RETIRED.ALL_BRANCHES":            {"branches": 1, "misp": -1},
		"INST_RETIRED.OTHER":                      prim("other"),
		"MEM_LOAD_RETIRED.L1_HIT":                 prim("l1_hit"),
		"MEM_LOAD_RETIRED.L1_MISS":                prim("l1_miss"),
		"MEM_LOAD_RETIRED.L2_HIT":                 prim("l2_hit"),
		"MEM_LOAD_RETIRED.L3_HIT":                 prim("l3_hit"),
		"MEM_LOAD_RETIRED.L3_MISS":                prim("l3_miss"),
		"L1D_PEND_MISS.PENDING":                   prim("pend_cycles"),
		"OFFCORE_RESPONSE.DEMAND_DATA_RD":         {"l3_hit": 1, "l3_miss": 1},
		"OFFCORE_RESPONSE.DEMAND_DATA_RD.L3_MISS": prim("l3_miss"),
	})

	if err := c.Validate(); err != nil {
		panic(err)
	}
	return c
}

// prim is the single-primitive model {name: 1}.
func prim(name string) map[string]float64 { return map[string]float64{name: 1} }

// Power9 returns the catalog for an IBM Power9-like ppc64 core: 2 effectively
// fixed counters (PMC5 counts completed instructions, PMC6 run cycles) and
// 4 programmable counters, no auxiliary MSRs.
func Power9() *Catalog {
	c := newCatalog("ppc64-power9", 2, 4, 0)

	inst := c.fixed("PM_INST_CMPL", 0, "completed instructions (PMC5)")
	cyc := c.fixed("PM_RUN_CYC", 1, "run cycles (PMC6)")

	loads := c.prog("PM_LD_CMPL", anyCtr(4), "completed load instructions")
	stores := c.prog("PM_ST_CMPL", anyCtr(4), "completed store instructions")
	branches := c.prog("PM_BR_CMPL", anyCtr(4), "completed branch instructions")
	misp := c.prog("PM_BR_MPRED_CMPL", anyCtr(4), "completed mispredicted branches")
	otherInst := c.prog("PM_INST_OTHER_CMPL", anyCtr(4), "completed instructions that are neither loads, stores nor branches")
	l1Hit := c.prog("PM_LD_HIT_L1", anyCtr(4), "loads satisfied by the L1 data cache")
	l1Miss := c.prog("PM_LD_MISS_L1", anyCtr(4), "loads that missed the L1 data cache")
	fromL2 := c.prog("PM_DATA_FROM_L2", loCtr(3), "loads satisfied from the L2 cache")
	fromL3 := c.prog("PM_DATA_FROM_L3", loCtr(3), "loads satisfied from the L3 cache")
	fromMem := c.prog("PM_DATA_FROM_MEM", loCtr(3), "loads satisfied from local memory")

	c.relation("inst_breakdown", 1e-3,
		"PM_INST_CMPL = LD + ST + BR + OTHER",
		Term{inst, 1}, Term{loads, -1}, Term{stores, -1}, Term{branches, -1}, Term{otherInst, -1})
	c.relation("l1_load_flow", 1e-3,
		"PM_LD_CMPL = PM_LD_HIT_L1 + PM_LD_MISS_L1",
		Term{loads, 1}, Term{l1Hit, -1}, Term{l1Miss, -1})
	c.relation("data_source_flow", 1e-3,
		"PM_LD_MISS_L1 = FROM_L2 + FROM_L3 + FROM_MEM",
		Term{l1Miss, 1}, Term{fromL2, -1}, Term{fromL3, -1}, Term{fromMem, -1})

	c.derivedRatio("IPC", "instructions per run cycle", inst, cyc, 1)
	c.derivedRatio("DL1_MPKI", "L1D misses per kilo-instruction", l1Miss, inst, 1000)
	c.derivedRatio("Branch_Misp_Rate", "mispredictions per completed branch", misp, branches, 1)

	c.setModels(map[string]map[string]float64{
		"PM_INST_CMPL":       prim("inst"),
		"PM_RUN_CYC":         prim("cycles"),
		"PM_LD_CMPL":         prim("loads"),
		"PM_ST_CMPL":         prim("stores"),
		"PM_BR_CMPL":         prim("branches"),
		"PM_BR_MPRED_CMPL":   prim("misp"),
		"PM_INST_OTHER_CMPL": prim("other"),
		"PM_LD_HIT_L1":       prim("l1_hit"),
		"PM_LD_MISS_L1":      prim("l1_miss"),
		"PM_DATA_FROM_L2":    prim("l2_hit"),
		"PM_DATA_FROM_L3":    prim("l3_hit"),
		"PM_DATA_FROM_MEM":   prim("l3_miss"),
	})

	if err := c.Validate(); err != nil {
		panic(err)
	}
	return c
}

// Catalogs returns every built-in catalog, in a stable order. New
// architectures are added here so downstream layers (CLI, sweeps) pick them
// up automatically.
func Catalogs() []*Catalog {
	return []*Catalog{Skylake(), Power9()}
}

// init seeds the catalog registry with the built-in architectures,
// re-expressed as data: the registry serves Specs, and spec-built catalogs
// are bit-identical to the builders (asserted in spec_test.go).
func init() {
	for _, c := range Catalogs() {
		spec, err := c.Spec()
		if err != nil {
			panic(err)
		}
		MustRegister(shortArch(c.Arch), spec)
	}
}

// shortArch maps a catalog's full Arch string to its registry name: the
// vendor suffix ("x86_64-skylake" → "skylake").
func shortArch(arch string) string {
	for i := len(arch) - 1; i >= 0; i-- {
		if arch[i] == '-' {
			return arch[i+1:]
		}
	}
	return arch
}
