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
	heap []entry // bounded max-heap of packed (hamming, rank) keys
	// The flat scan's zones in visiting order, with the counting sort's
	// per-zone bounds and per-bound slots.
	zones  []zone
	bounds []int32
	starts []int32
	out    Ranking // result staging returned to the caller
	// visited is how many zones the last MappedScan streamed through the
	// kernel (BenchmarkMappedScan reports it).
	visited int
}

// entry is one lane in the bounded heap: its packed key and its id.
type entry struct {
	key uint64
	id  int
}

// zone is one zone of the flat scan: its packed key (LowerBound<<32 |
// least rank), which orders the visits, and its index.
type zone struct {
	key uint64
	zi  int
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// NewScratch takes a Scratch from the shared pool.
func NewScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// Release returns s to the pool. Rankings previously returned from
// calls using s must not be read afterwards.
func (s *Scratch) Release() { scratchPool.Put(s) }

// The bounded top-k selection works on packed uint64 keys,
//
//	key = hamming<<32 | rank
//
// so one integer comparison orders by (hamming, rank) — for a fixed
// dimension p exactly the (score, rank) order of Order.sort, because
// score = sqrt(hamming/p) is strictly increasing in hamming for every p
// the codec admits (the score gap between adjacent hamming counts
// dwarfs float64 rounding), and equal hamming means equal score. Both
// halves fit: hamming <= p < 2^31 and ranks are below 2^32 (see Order).

// pushK keeps keys the k entries with the smallest keys seen, as a
// max-heap (root = current worst). The steady-state path — heap full,
// candidate worse than the root — is a single comparison.
func pushK(keys []entry, k int, e entry) []entry {
	if len(keys) < k {
		keys = append(keys, e)
		// Sift up.
		i := len(keys) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if keys[parent].key >= keys[i].key {
				break
			}
			keys[parent], keys[i] = keys[i], keys[parent]
			i = parent
		}
		return keys
	}
	if e.key >= keys[0].key {
		return keys
	}
	keys[0] = e
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < len(keys) && keys[l].key > keys[largest].key {
			largest = l
		}
		if r < len(keys) && keys[r].key > keys[largest].key {
			largest = r
		}
		if largest == i {
			return keys
		}
		keys[i], keys[largest] = keys[largest], keys[i]
		i = largest
	}
}
