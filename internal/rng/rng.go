// Package rng provides a small deterministic pseudo-random generator
// (splitmix64). The checker never uses the global math/rand state:
// random-tail search must be reproducible from (seed, execution index)
// alone so that any execution the search finds can be replayed.
package rng

// Rand is a splitmix64 generator. The zero value is a valid generator
// seeded with zero.
type Rand struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *Rand {
	return &Rand{state: seed}
}

// Seed restarts r as the generator New(seed) returns.
func (r *Rand) Seed(seed uint64) { r.state = seed }

// Mix derives a new seed from two values; used to give every execution
// an independent but reproducible tail-search stream.
func Mix(a, b uint64) uint64 {
	x := a ^ (b + 0x9e3779b97f4a7c15 + (a << 6) + (a >> 2))
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Uint64 returns the next value in the stream.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}
