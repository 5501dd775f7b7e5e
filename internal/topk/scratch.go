package topk

import "sync"

// Scratch is a per-query scratch arena for the flat scan: the bounded
// top-k heap and the result staging the caller copies out of. Reusing
// one Scratch across queries makes a warm cache-miss fan-out perform O(1)
// allocations per query — the buffers grow to the high-water mark of the
// collection and stay.
//
// A Scratch serves one query at a time. Rankings returned by MappedScan
// alias s.out and stay valid only until the next use or Release; callers
// copy what they keep.
type Scratch struct {
	keys []uint64 // bounded max-heap of packed (hamming, id) keys
	out  Ranking  // result staging returned to the caller
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// NewScratch takes a Scratch from the shared pool.
func NewScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// Release returns s to the pool. Rankings previously returned from
// calls using s must not be read afterwards.
func (s *Scratch) Release() { scratchPool.Put(s) }

// The bounded top-k selection works on packed uint64 keys,
//
//	key = hamming<<32 | id
//
// so one integer comparison orders by (hamming, id) — for a fixed
// dimension p exactly the flat scan's (score, id) order, because
// score = sqrt(hamming/p) is strictly increasing in hamming for every p
// the codec admits (the score gap between adjacent hamming counts
// dwarfs float64 rounding), and equal hamming means equal score. Both
// halves fit: hamming <= p < 2^31 and ids are int32 everywhere the
// posting layer touches them.

// pushK keeps keys the k smallest keys seen, as a max-heap (root =
// current worst). The steady-state path — heap full, candidate worse
// than the root — is a single comparison.
func pushK(keys []uint64, k int, key uint64) []uint64 {
	if len(keys) < k {
		keys = append(keys, key)
		// Sift up.
		i := len(keys) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if keys[parent] >= keys[i] {
				break
			}
			keys[parent], keys[i] = keys[i], keys[parent]
			i = parent
		}
		return keys
	}
	if key >= keys[0] {
		return keys
	}
	keys[0] = key
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < len(keys) && keys[l] > keys[largest] {
			largest = l
		}
		if r < len(keys) && keys[r] > keys[largest] {
			largest = r
		}
		if largest == i {
			return keys
		}
		keys[i], keys[largest] = keys[largest], keys[i]
		i = largest
	}
}
