package vc

import "math/bits"

// Pool is a size-classed free list of vector-clock backing arrays: the
// slab allocator behind the detector's zero-allocation hot paths. Sites
// that used to allocate a fresh VC per operation (lock-release
// materialization, barrier joins, read-share inflation, thread
// creation) Get from a pool instead, and the reclamation seams —
// write-shared demotion, budget squeezes, accordion compaction, session
// Reset — Put the retired backing arrays back. In steady state a
// detector's VC population reaches a fixed point and the Go allocator
// drops out of the per-event cost entirely.
//
// A Pool is not safe for concurrent use; each detector owns its own.
// The zero value is ready to use.
type Pool struct {
	// classes[c] holds retired arrays with capacity >= 1<<c (each array
	// is filed under floor(log2(cap)), so popping from class c always
	// satisfies a request of up to 1<<c clocks).
	classes [poolClasses][]VC
	// Recycled counts Gets served from the free lists; Fresh counts
	// Gets that fell through to the allocator.
	Recycled, Fresh int64
}

const (
	// poolClasses bounds the largest pooled array at 1<<(poolClasses-1)
	// clocks; larger requests bypass the pool.
	poolClasses = 20
	// poolPerClass caps each class's free list so a burst of retirements
	// cannot pin unbounded memory in the pool.
	poolPerClass = 128
)

// Get returns a minimal (all-zero) vector clock of length n, reusing a
// retired backing array when one of sufficient capacity is pooled.
func (p *Pool) Get(n int) VC {
	if n <= 0 {
		return nil
	}
	c := bits.Len(uint(n - 1)) // ceil(log2(n))
	if c < poolClasses {
		if s := p.classes[c]; len(s) > 0 {
			v := s[len(s)-1]
			s[len(s)-1] = nil
			p.classes[c] = s[:len(s)-1]
			v = v[:n]
			for i := range v {
				v[i] = 0
			}
			p.Recycled++
			return v
		}
	}
	p.Fresh++
	return make(VC, n)
}

// Put retires v's backing array into the pool. The caller must not use
// v afterwards. Nil and over-large arrays are dropped on the floor.
func (p *Pool) Put(v VC) {
	if cap(v) == 0 {
		return
	}
	c := bits.Len(uint(cap(v))) - 1 // floor(log2(cap))
	if c >= poolClasses || len(p.classes[c]) >= poolPerClass {
		return
	}
	p.classes[c] = append(p.classes[c], v[:0])
}

// Drain empties the free lists, releasing every pinned backing array to
// the allocator. Memory-pressure seams (the detector's budget squeeze)
// call it when retaining pooled slabs would defeat the reclamation.
func (p *Pool) Drain() {
	for c := range p.classes {
		p.classes[c] = nil
	}
}

// Bytes reports the memory pinned by the pool's free lists, for the
// detector's footprint accounting.
func (p *Pool) Bytes() int64 {
	var b int64
	for c := range p.classes {
		b += int64(cap(p.classes[c])) * 24 // slice headers
		for _, v := range p.classes[c] {
			b += int64(cap(v)) * 8
		}
	}
	return b
}
