package main

import (
	"bytes"
	"container/list"
	"fmt"
	"math"
	"testing"

	"ooc/internal/core"
	"ooc/internal/specio"
	"ooc/internal/usecases"
)

// encode renders every generated input as bytes.
func encode(t *testing.T, in *inputs) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, inst := range in.grid {
		key, err := specio.Canonical(inst.Spec)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(key)
	}
	for _, doc := range in.serveSpecs {
		b.Write(doc)
	}
	for _, rq := range in.stream {
		fmt.Fprintf(&b, "%d/%d,", rq.key, rq.kind)
	}
	for _, spec := range in.physics {
		key, err := specio.Canonical(spec)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(key)
	}
	return b.Bytes()
}

func TestSeedDeterminesInputs(t *testing.T) {
	gen := func(seed int64) []byte {
		in, err := makeInputs(seed)
		if err != nil {
			t.Fatal(err)
		}
		return encode(t, in)
	}
	a, b, c := gen(7), gen(7), gen(8)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed gave different inputs")
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds gave the same inputs")
	}
}

// TestPhysicsAspectsDistinct: every physics design's module
// cross-section is a similarity class of its own, distinct from the
// warm-up chip's, while its vertical channels share the warm-up's
// class — so each op makes exactly one cold cross-section solve and
// sim.xsection_misses equals the op count.
func TestPhysicsAspectsDistinct(t *testing.T) {
	in, err := makeInputs(3)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := core.Derive(usecases.Fig4Instance().Spec)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[float64]bool{warm.ModuleCrossSection().NormalizedAspect(): true}
	vertical := warm.VerticalCrossSection().NormalizedAspect()
	for _, spec := range in.physics {
		res, err := core.Derive(spec)
		if err != nil {
			t.Fatal(err)
		}
		a := res.ModuleCrossSection().NormalizedAspect()
		if seen[a] {
			t.Fatalf("module aspect %v repeats", a)
		}
		seen[a] = true
		// The cache keys on the exact value, so compare bits.
		if v := res.VerticalCrossSection().NormalizedAspect(); math.Float64bits(v) != math.Float64bits(vertical) {
			t.Fatalf("vertical aspect %v differs from the warm-up's %v", v, vertical)
		}
	}
	if len(in.physics) != physicsHeights {
		t.Fatalf("%d physics designs, want %d", len(in.physics), physicsHeights)
	}
}

// TestServePoolExceedsCache: the pool and the keys the stream touches
// outnumber oocd's 256-entry response cache, so the stream misses and
// re-misses, not only hits.
func TestServePoolExceedsCache(t *testing.T) {
	in, err := makeInputs(5)
	if err != nil {
		t.Fatal(err)
	}
	canon := map[string]bool{}
	for _, doc := range in.serveSpecs {
		spec, err := specio.Parse(doc)
		if err != nil {
			t.Fatal(err)
		}
		key, err := specio.Canonical(spec)
		if err != nil {
			t.Fatal(err)
		}
		canon[string(key)] = true
	}
	if len(canon) != len(in.serveSpecs) || len(canon) <= serveCacheSize {
		t.Fatalf("%d distinct specs in a pool of %d; want all distinct and more than %d", len(canon), len(in.serveSpecs), serveCacheSize)
	}
	touched := map[request]bool{}
	for _, rq := range in.stream {
		touched[rq] = true
	}
	if len(touched) <= serveCacheSize {
		t.Fatalf("the stream touches %d keys, want more than %d", len(touched), serveCacheSize)
	}
}

// TestServeMissShare: an LRU cache of oocd's size, shared by the
// endpoints as oocd's is, misses about the share of the stream the key
// skew was solved for, and at least the workload's floor of 5 %.
func TestServeMissShare(t *testing.T) {
	in, err := makeInputs(5)
	if err != nil {
		t.Fatal(err)
	}
	lru := list.New()
	at := map[request]*list.Element{}
	warmUp := len(in.stream) / 10
	var misses int
	for i, rq := range in.stream {
		if e, ok := at[rq]; ok {
			lru.MoveToFront(e)
			continue
		}
		if i >= warmUp {
			misses++
		}
		at[rq] = lru.PushFront(rq)
		if lru.Len() > serveCacheSize {
			delete(at, lru.Remove(lru.Back()).(request))
		}
	}
	share := float64(misses) / float64(len(in.stream)-warmUp)
	t.Logf("miss share %.4f, drawn for %.2f", share, serveMissShare)
	if share < 0.05 || math.Abs(share-serveMissShare) > 0.2*serveMissShare {
		t.Fatalf("the stream misses %.4f of requests in an LRU of %d; want %.2f ± 20 %% and at least 0.05", share, serveCacheSize, serveMissShare)
	}
}
