package main

import (
	"fmt"
	"math"
	"math/rand"

	"adarnet/internal/geometry"
	"adarnet/internal/grid"
	"adarnet/internal/jobs"
)

// The benchmark's scale: the repo's "quick" grid (LR 16×64, 4×4 patches,
// three target resolutions) with the paper's geometries.
const (
	lrH, lrW      = 16, 64
	patchSize     = 4
	bins          = 3
	maxLevel      = 2
	solverMaxIter = 12000
	cacheBytes    = 256 << 20
	clients       = 2 // closed-loop clients and callers, = nproc of the reference box
)

// paperCase is one of the seven §5 evaluation cases in the vocabulary of the
// HTTP API.
type paperCase struct {
	Case string
	Re   float64
}

var paperCases = []paperCase{
	{"channel", 2.5e3}, {"channel", 1.5e4},
	{"flatplate", 2.5e5}, {"flatplate", 1.35e6},
	{"cylinder", 1e5}, {"naca0012", 2.5e4}, {"naca1412", 2.5e4},
}

// build constructs the geometry the server builds for the same request, by
// the job API's own mapping from case names.
func (p paperCase) build() *geometry.Case {
	c, err := jobs.Spec{Case: p.Case, Re: p.Re, H: lrH, W: lrW}.BuildCase()
	if err != nil {
		panic("benchmark: " + err.Error()) // paperCases holds a name the API does not know
	}
	return c
}

func (p paperCase) key() string { return fmt.Sprintf("%s/%.17g", p.Case, p.Re) }

// jitter moves Re by up to ±2 % so that no two requests are identical and
// the server's cache, coalescing and any solve memo see a first read. (The
// ISSUE's ±10 % moves a case's solver iteration count by ±4 %, which on
// predict_zipf, where one hot key sets the median, is seed-to-seed spread
// of the metric; ±2 % moves it by one 25-iteration check interval at most.)
func jitter(rng *rand.Rand, p paperCase) paperCase {
	p.Re *= 1 + 0.02*(2*rng.Float64()-1)
	return p
}

// predictColdRequests returns rounds × the seven paper geometries, each round
// in a seeded order and every request at its own Reynolds number.
func predictColdRequests(seed int64, rounds int) []paperCase {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	var out []paperCase
	for r := 0; r < rounds; r++ {
		for _, i := range rng.Perm(len(paperCases)) {
			p := jitter(rng, paperCases[i])
			for seen[p.key()] {
				p = jitter(rng, paperCases[i])
			}
			seen[p.key()] = true
			out = append(out, p)
		}
	}
	return out
}

// zipfHotRanks fixes which geometry holds which popularity rank of the
// predict_zipf hot set. The ranking is not seeded: a seeded one would put a
// 0.3 s airfoil or a 0.9 s flat plate on rank 1 depending on the seed, and
// the latency population would differ between seeds by more than any change
// under test. The seed picks each hot key's Reynolds number and the order of
// arrival. Rank 1 is the cylinder, the median geometry of predict_cold, so
// that without a solve memo the two workloads read alike; the order of the
// others puts both the median and the tail rank of a 28-request run inside
// the cylinder's group of equal-cost requests, not on a boundary between
// two geometries.
var zipfHotRanks = []int{4, 5, 2, 0, 6}

const zipfColdShare = 0.2

// predictZipfRequests returns n requests: a share of never-repeated ones
// cycling through the paper geometries, and the rest a Zipf(s=1)-shaped
// multiset over the hot set — rank k gets its exact quota n_hot/(k·H), so
// the number of repeats does not vary with the seed — in a seeded order.
func predictZipfRequests(seed int64, n int) []paperCase {
	rng := rand.New(rand.NewSource(seed))
	hot := make([]paperCase, len(zipfHotRanks))
	seen := map[string]bool{}
	for k, i := range zipfHotRanks {
		hot[k] = jitter(rng, paperCases[i])
		seen[hot[k].key()] = true
	}
	nCold := int(math.Round(zipfColdShare * float64(n)))
	weights := make([]float64, len(hot))
	for k := range weights {
		weights[k] = 1 / float64(k+1)
	}
	var out []paperCase
	for k, q := range apportion(n-nCold, weights) {
		for j := 0; j < q; j++ {
			out = append(out, hot[k])
		}
	}
	for j := 0; j < nCold; j++ {
		base := paperCases[j%len(paperCases)]
		p := jitter(rng, base)
		for seen[p.key()] {
			p = jitter(rng, base)
		}
		seen[p.key()] = true
		out = append(out, p)
	}
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// apportion splits total into whole quotas proportional to weights by the
// largest-remainder method.
func apportion(total int, weights []float64) []int {
	var sum float64
	for _, w := range weights {
		sum += w
	}
	quotas := make([]int, len(weights))
	rem := make([]float64, len(weights))
	left := total
	for i, w := range weights {
		exact := float64(total) * w / sum
		quotas[i] = int(exact)
		rem[i] = exact - float64(quotas[i])
		left -= quotas[i]
	}
	for ; left > 0; left-- {
		best := 0
		for i := range rem {
			if rem[i] > rem[best] {
				best = i
			}
		}
		quotas[best]++
		rem[best] = -1
	}
	return quotas
}

// flowRef names one infer_flow input: a pre-solved paper field and the
// factor its U channel is scaled by, so every input has its own cache key.
type flowRef struct {
	Field  int
	Factor float64
}

// inferFlowRefs returns rounds × nFields inputs in a seeded order, each with
// its own U perturbation of at most 0.05 %.
func inferFlowRefs(seed int64, rounds, nFields int) []flowRef {
	rng := rand.New(rand.NewSource(seed))
	seen := map[flowRef]bool{}
	var out []flowRef
	for r := 0; r < rounds; r++ {
		for _, i := range rng.Perm(nFields) {
			ref := flowRef{i, 1 + 5e-4*(2*rng.Float64()-1)}
			for seen[ref] || ref.Factor == 1 {
				ref.Factor = 1 + 5e-4*(2*rng.Float64()-1)
			}
			seen[ref] = true
			out = append(out, ref)
		}
	}
	return out
}

func (r flowRef) apply(fields []*grid.Flow) *grid.Flow {
	f := fields[r.Field].Clone()
	for i := range f.U.Data {
		f.U.Data[i] *= r.Factor
	}
	return f
}

// e2eJob is the /jobs case of e2e_ttc, submitted unjittered and back to
// back: the paper's symmetric airfoil at max_level 2 (a 64×256 correction
// solve). One case several times, not several cases once: the jobs of a run
// are then repeats of one measurement, and their median sheds a burst of
// machine noise that hits one of them.
var e2eJob = paperCase{"naca0012", 2.5e4}

// Work per run is a pure function of --seconds, sized so that one run takes
// about that long on the reference box; parent and change therefore serve
// the same requests. The factors are the ISSUE's request counts scaled by
// one common factor to the per-run time cap.
func predictRounds(seconds int) int { return max(1, int(math.Round(0.4*float64(seconds)))) }
func inferRounds(seconds int) int   { return max(4, 5*seconds) }
func e2eJobs(seconds int) int       { return max(1, 3*seconds/10) }
