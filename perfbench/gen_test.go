package main

import (
	"reflect"
	"testing"
)

func clinicianOps(seed int64, n int) []gwOp {
	g := newClinicianGen(seed, 8)
	out := make([]gwOp, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func sweeperOps(seed int64, n int) []gwOp {
	g := newSweeperGen(seed)
	out := make([]gwOp, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func seeds(seed int64, stream uint64, n int) []int64 {
	s := newSeedStream(seed, stream)
	out := make([]int64, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	if !reflect.DeepEqual(clinicianOps(7, 300), clinicianOps(7, 300)) {
		t.Error("clinician: the same seed gave different request sequences")
	}
	if !reflect.DeepEqual(sweeperOps(7, 50), sweeperOps(7, 50)) {
		t.Error("sweeper: the same seed gave different request sequences")
	}
	if !reflect.DeepEqual(seeds(7, streamWard, 50), seeds(7, streamWard, 50)) {
		t.Error("ensemble seeds: the same seed gave different sequences")
	}
	if !reflect.DeepEqual(newClinicianGen(7, 8).prefill, newClinicianGen(7, 8).prefill) {
		t.Error("prefill: the same seed gave different requests")
	}
}

func TestGeneratorsFollowTheSeed(t *testing.T) {
	if reflect.DeepEqual(clinicianOps(7, 300), clinicianOps(8, 300)) {
		t.Error("clinician: different seeds gave the same request sequence")
	}
	if reflect.DeepEqual(sweeperOps(7, 50), sweeperOps(8, 50)) {
		t.Error("sweeper: different seeds gave the same request sequence")
	}
	if reflect.DeepEqual(seeds(7, streamWard, 50), seeds(8, streamWard, 50)) {
		t.Error("ensemble seeds: different seeds gave the same sequence")
	}
	if reflect.DeepEqual(seeds(7, streamWard, 50), seeds(7, streamProbe, 50)) {
		t.Error("two clients of one workload share a seed stream")
	}
}

func TestClinicianMixIsConsistent(t *testing.T) {
	g := newClinicianGen(3, 8)
	got := map[string]bool{}
	prefill := map[string]bool{}
	for _, r := range g.prefill {
		prefill[r.Key()] = true
	}
	kinds := map[opKind]int{}
	for range 400 {
		op := g.next()
		key := op.req.Key()
		kinds[op.kind]++
		switch op.kind {
		case opMiss:
			if got[key] || prefill[key] {
				t.Fatalf("miss seed=%d repeats a known key", op.req.Seed)
			}
		case opMemHit:
			if !got[key] {
				t.Fatalf("memory hit seed=%d for a key not yet served", op.req.Seed)
			}
		case opStoreHit:
			if got[key] || !prefill[key] {
				t.Fatalf("store hit seed=%d is not a fresh prefill key", op.req.Seed)
			}
		}
		got[key] = true
	}
	if kinds[opStoreHit] != len(g.prefill) {
		t.Errorf("%d store hits, want all %d prefill keys used", kinds[opStoreHit], len(g.prefill))
	}
	if kinds[opMiss] == 0 || kinds[opMemHit] == 0 {
		t.Errorf("mix lacks a kind: %v", kinds)
	}
}
