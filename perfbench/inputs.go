package main

import (
	"math"
	"math/rand"

	"ooc/internal/core"
	"ooc/internal/specio"
	"ooc/internal/units"
	"ooc/internal/usecases"
)

// Sizes of the generated inputs. Every workload gets all three sets,
// because every run drives every phase.
const (
	// gridPool designs are evaluated in batches of gridBatch; the pool
	// is cycled until the phase's time is up.
	gridPool  = 1024
	gridBatch = 256
	// serveCacheSize is oocd's default response-cache capacity
	// (server.Config.CacheSize): one LRU that every endpoint shares.
	serveCacheSize = 256
	// servePool distinct specifications: twice the cache, so at most
	// half the pool fits in it even on one endpoint, and LRU re-misses
	// occur at any skew.
	servePool = 2 * serveCacheSize
	// serveMissShare is the share of requests the stream is drawn to
	// miss the cache: twice the workload's floor of about 5 %, so each
	// 0.5 s window of the phase holds a hundred or more cold replies
	// for its median. The key skew is solved for it (zipfForMissShare).
	serveMissShare = 0.10
	// serveStream requests are drawn up front; a phase that outlives
	// them wraps around.
	serveStream = 200000
	// physicsHeights is how many distinct channel heights the physics
	// phase can draw, one per op: a band of ±physicsBand around the
	// default 150 µm in steps of physicsBand/(physicsHeights/2).
	physicsHeights = 400
	physicsBand    = 0.03
)

// endpoint is the kind of an HTTP request in the serve stream.
type endpoint int

const (
	validateExact  endpoint = iota // POST /v1/validate?model=exact
	validateBudget                 // POST /v1/validate?error_budget=0.01
	design                         // POST /v1/design
)

func (e endpoint) path() string {
	switch e {
	case validateBudget:
		return "/v1/validate?error_budget=0.01"
	case design:
		return "/v1/design"
	}
	return "/v1/validate?model=exact"
}

// serveShares are the endpoint shares of the serve stream, indexed by
// endpoint. The repository holds no request log to fit them to, so they
// are an assumption: mostly exact validation, as a design tool checks
// candidates, with the budgeted validation and the design endpoint
// splitting the rest. A run prints the shares it sent.
var serveShares = []float64{validateExact: 0.8, validateBudget: 0.1, design: 0.1}

// zipfForMissShare returns the skew s of a key popularity P(k) ∝
// (1+k)^-s over pool keys (math/rand's Zipf with v = 1) at which an LRU
// cache of cache entries, shared by endpoints drawn independently with
// the given shares, misses the given share of the requests. It uses
// Che's approximation: an entry stays cached for a characteristic time
// T with Σ (1 − e^(−p·T)) = cache over all keys, and the miss share is
// Σ p·e^(−p·T). The miss share falls as s grows, so s is bisected.
func zipfForMissShare(pool, cache int, miss float64, shares []float64) float64 {
	missAt := func(s float64) float64 {
		var norm float64
		for k := 0; k < pool; k++ {
			norm += math.Pow(1+float64(k), -s)
		}
		ps := make([]float64, 0, pool*len(shares))
		for k := 0; k < pool; k++ {
			for _, w := range shares {
				ps = append(ps, w*math.Pow(1+float64(k), -s)/norm)
			}
		}
		// The sum is concave and increasing in T and at most T, so
		// Newton's method from T = cache climbs to the root from below.
		t := float64(cache)
		for i := 0; i < 100; i++ {
			var f, df float64
			for _, p := range ps {
				e := math.Exp(-p * t)
				f += 1 - e
				df += p * e
			}
			f -= float64(cache)
			if f > -1e-6 {
				break
			}
			t -= f / df
		}
		var m float64
		for _, p := range ps {
			m += p * math.Exp(-p*t)
		}
		return m
	}
	lo, hi := 1.0001, 4.0
	for i := 0; i < 16; i++ {
		if mid := (lo + hi) / 2; missAt(mid) > miss {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// request is one entry of the serve stream.
type request struct {
	key  int // index into inputs.serveSpecs
	kind endpoint
}

// inputs are everything a run feeds the program, drawn from one seed.
type inputs struct {
	grid       []usecases.Instance
	serveSpecs [][]byte // specio documents, pairwise distinct canonically
	stream     []request
	zipf       float64     // the key skew of the stream
	physics    []core.Spec // the Fig. 4 chip at pairwise-distinct channel heights
}

// uniform draws from [lo, hi].
func uniform(r *rand.Rand, lo, hi float64) float64 { return lo + r.Float64()*(hi-lo) }

// drawInstance draws one design-space point of use case uc at a
// viscosity, shear stress and spacing inside the ExtendedSweep ranges
// (the paper's Table I grid, continuous instead of 3×3×4).
func drawInstance(r *rand.Rand, uc usecases.UseCase, sweep usecases.SweepParams) usecases.Instance {
	p := usecases.SweepParams{
		Viscosities: []units.Viscosity{units.Viscosity(uniform(r, float64(sweep.Viscosities[0]), float64(sweep.Viscosities[len(sweep.Viscosities)-1])))},
		Shears:      []units.ShearStress{units.ShearStress(uniform(r, float64(sweep.Shears[0]), float64(sweep.Shears[len(sweep.Shears)-1])))},
		Spacings:    []units.Length{units.Length(uniform(r, float64(sweep.Spacings[0]), float64(sweep.Spacings[len(sweep.Spacings)-1])))},
	}
	return usecases.Instances([]usecases.UseCase{uc}, p)[0]
}

// physicsHeight is the channel height of step k of the jitter band;
// k = 0 is the default height, used only for warm-up.
func physicsHeight(k int) units.Length {
	return units.Micrometres(150 * (1 + physicsBand*float64(k)/float64(physicsHeights/2)))
}

// makeInputs draws a run's inputs from seed. The same seed gives the
// same inputs, byte for byte.
func makeInputs(seed int64) (*inputs, error) {
	cases := usecases.All()
	sweep := usecases.ExtendedSweep()
	in := &inputs{}

	r := rand.New(rand.NewSource(seed))
	// Use cases are stratified — instance i is of case i mod 8 — so
	// every batch holds each case equally often and the seed moves
	// only the continuous parameters, not the cost mix.
	for i := 0; i < gridPool; i++ {
		in.grid = append(in.grid, drawInstance(r, cases[i%len(cases)], sweep))
	}

	r = rand.New(rand.NewSource(seed ^ 0x5e7e))
	seen := make(map[string]bool, servePool)
	for len(in.serveSpecs) < servePool {
		spec := drawInstance(r, cases[len(in.serveSpecs)%len(cases)], sweep).Spec
		key, err := specio.Canonical(spec)
		if err != nil {
			return nil, err
		}
		if seen[string(key)] {
			continue
		}
		seen[string(key)] = true
		doc, err := specio.Marshal(spec)
		if err != nil {
			return nil, err
		}
		in.serveSpecs = append(in.serveSpecs, doc)
	}
	// Popularity follows pool order, which is stratified like the
	// grid's, so the hot keys cover every use case for any seed.
	in.zipf = zipfForMissShare(servePool, serveCacheSize, serveMissShare, serveShares)
	z := rand.NewZipf(r, in.zipf, 1, servePool-1)
	in.stream = make([]request, serveStream)
	for i := range in.stream {
		kind, u := validateExact, r.Float64()
		for e, w := range serveShares {
			if u < w {
				kind = endpoint(e)
				break
			}
			u -= w
		}
		in.stream[i] = request{key: int(z.Uint64()), kind: kind}
	}

	r = rand.New(rand.NewSource(seed ^ 0xf1e1d))
	base := usecases.Fig4Instance().Spec
	for _, k := range r.Perm(physicsHeights + 1) {
		k -= physicsHeights / 2
		if k == 0 {
			continue
		}
		// The name stays the use case's, which the calibration table
		// is keyed by.
		spec := base
		spec.Geometry.ChannelHeight = physicsHeight(k)
		in.physics = append(in.physics, spec)
	}
	return in, nil
}
