package main

import (
	"math/rand/v2"

	"repro/internal/fleet"
	"repro/internal/icegate"
)

// Workload generation. Every input the program sees is drawn here from
// the workload seed, one independent stream per client, so the same seed
// gives the same request sequence whatever the timing, and the program
// never sees the seed itself.

// Stream labels: one PCG stream per client role.
const (
	streamWard uint64 = iota + 1
	streamProbe
	streamSweeper
	streamClinician
	streamClinicianSeeds
	streamPrefill
	streamWarmup
	streamSample
)

// seedStream yields the distinct ensemble base seeds of one client.
type seedStream struct{ r *rand.Rand }

func newSeedStream(seed int64, stream uint64) *seedStream {
	return &seedStream{rand.New(rand.NewPCG(uint64(seed), stream))}
}

// next returns a positive seed (icegate maps seed 0 to 1, so 0 is never
// drawn: every request keeps the identity it was generated with).
func (s *seedStream) next() int64 {
	for {
		if v := s.r.Int64(); v != 0 {
			return v
		}
	}
}

// Request shapes.
const (
	ensembleCells = 8  // pca-ward and sweeper ensembles
	wardMinutes   = 30 // sim-minutes per pca-supervised cell
	probeCells    = 8  // mesh-probe ensembles
	probeMinutes  = 1  // sim-minutes per tele-icu-probe cell
	probeRTTMS    = 8  // tele-icu-probe rtt_ms knob
	xrayCells     = 8  // clinician X-ray sessions
	tenantClin    = "clinician"
	tenantSweep   = "sweeper"
	clinMissFrac  = 0.70 // share of clinician requests that are new sessions
	clinMemFrac   = 0.15 // share that repeat a result it already got
)

// opKind classifies a gateway request by how the gateway must answer it.
type opKind int

const (
	opMiss     opKind = iota // never computed: simulate, write through
	opMemHit                 // repeat of a result this client already got
	opStoreHit               // persisted before the restart, first lookup
)

func (k opKind) String() string {
	return [...]string{"miss", "memory hit", "store hit"}[k]
}

// gwOp is one generated gateway request.
type gwOp struct {
	kind opKind
	req  icegate.Request
}

func sweeperRequest(seed int64) icegate.Request {
	return icegate.Request{
		Scenario: fleet.ScenarioPCASupervised, Seed: seed, Cells: ensembleCells,
		DurationS: wardMinutes * 60, Tenant: tenantSweep, Lane: icegate.LaneBatch,
	}
}

func xrayRequest(seed int64) icegate.Request {
	return icegate.Request{
		Scenario: fleet.ScenarioXRayVentSync, Seed: seed, Cells: xrayCells,
		Tenant: tenantClin, Lane: icegate.LaneInteractive,
	}
}

// sweeperGen is the batch tenant: new pca-supervised ensembles only.
type sweeperGen struct{ seeds *seedStream }

func newSweeperGen(seed int64) *sweeperGen {
	return &sweeperGen{newSeedStream(seed, streamSweeper)}
}

func (g *sweeperGen) next() gwOp { return gwOp{opMiss, sweeperRequest(g.seeds.next())} }

// clinicianGen is the interactive tenant's seeded mix of new X-ray
// sessions, repeats of results it already got, and first lookups of
// results persisted during set-up. The mix depends only on the seed and
// the sequence so far: a closed-loop client has every earlier answer
// before it asks again.
type clinicianGen struct {
	r         *rand.Rand
	seeds     *seedStream
	got       []icegate.Request // results already served, in order
	prefill   []icegate.Request // persisted before the restart
	nextStore int
}

// newClinicianGen draws the set-up's prefill requests first, from their
// own stream, then the timed mix.
func newClinicianGen(seed int64, prefill int) *clinicianGen {
	g := &clinicianGen{
		r:     rand.New(rand.NewPCG(uint64(seed), streamClinician)),
		seeds: newSeedStream(seed, streamClinicianSeeds),
	}
	pre := newSeedStream(seed, streamPrefill)
	for range prefill {
		g.prefill = append(g.prefill, xrayRequest(pre.next()))
	}
	return g
}

func (g *clinicianGen) next() gwOp {
	u := g.r.Float64()
	kind := opMiss
	switch {
	case u < clinMissFrac || len(g.got) == 0:
	case u < clinMissFrac+clinMemFrac || g.nextStore == len(g.prefill):
		kind = opMemHit
	default:
		kind = opStoreHit
	}
	var op gwOp
	switch kind {
	case opMiss:
		op = gwOp{opMiss, xrayRequest(g.seeds.next())}
	case opMemHit:
		op = gwOp{opMemHit, g.got[g.r.IntN(len(g.got))]}
	case opStoreHit:
		op = gwOp{opStoreHit, g.prefill[g.nextStore]}
		g.nextStore++
	}
	if op.kind != opMemHit {
		g.got = append(g.got, op.req)
	}
	return op
}
