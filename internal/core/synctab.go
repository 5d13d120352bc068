package core

import "fasttrack/internal/vc"

// lockTab maps lock (and volatile) identifiers to their release clocks
// L_m. It replaces the built-in map on the synchronization paths:
// acquire and release are the hot sync operations ([FT ACQUIRE]/[FT
// RELEASE] run per critical section), and an open-addressing table with
// the murmur-finalizer probe hash answers them in one probe — no
// hashing twice for a lookup-then-store pair (release uses ref, a
// single probe that inserts on miss), no bucket chains, no map header.
// It never deletes, so linear probing needs no tombstones; growth
// doubles at 3/4 load.
type lockTab struct {
	keys []uint64
	vcs  []vc.VC
	meta []uint8 // slotUsed bit
	mask uint64
	used int
}

// slotUsed marks a live lockTab slot.
const slotUsed = 1 << 0

// mix64 is the 64-bit murmur finalizer, the probe hash of lockTab.
// Raw lock ids are often sequential, which linear probing punishes; the
// finalizer's avalanche spreads them across the table.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// get returns lock m's clock, or (nil, false) if m was never released.
func (lt *lockTab) get(m uint64) (vc.VC, bool) {
	if lt.mask == 0 {
		return nil, false
	}
	h := mix64(m) & lt.mask
	for lt.meta[h]&slotUsed != 0 {
		if lt.keys[h] == m {
			return lt.vcs[h], true
		}
		h = (h + 1) & lt.mask
	}
	return nil, false
}

// ref returns a pointer to lock m's clock slot, inserting an empty slot
// (nil clock) on miss — the release path's single-probe lookup-or-
// insert. The pointer is invalidated by the next ref, so callers must
// not hold it across another table operation.
func (lt *lockTab) ref(m uint64) *vc.VC {
	if lt.mask == 0 || lt.used*4 >= len(lt.keys)*3 {
		lt.grow()
	}
	h := mix64(m) & lt.mask
	for lt.meta[h]&slotUsed != 0 {
		if lt.keys[h] == m {
			return &lt.vcs[h]
		}
		h = (h + 1) & lt.mask
	}
	lt.keys[h] = m
	lt.meta[h] = slotUsed
	lt.used++
	return &lt.vcs[h]
}

func (lt *lockTab) grow() {
	n := 2 * len(lt.keys)
	if n == 0 {
		n = 16
	}
	old := *lt
	lt.keys = make([]uint64, n)
	lt.vcs = make([]vc.VC, n)
	lt.meta = make([]uint8, n)
	lt.mask = uint64(n - 1)
	for i := range old.keys {
		if old.meta[i]&slotUsed == 0 {
			continue
		}
		h := mix64(old.keys[i]) & lt.mask
		for lt.meta[h]&slotUsed != 0 {
			h = (h + 1) & lt.mask
		}
		lt.keys[h] = old.keys[i]
		lt.vcs[h] = old.vcs[i]
		lt.meta[h] = slotUsed
	}
}

// eachRef visits every live entry with a mutable clock pointer, for the
// compaction and invariant walks.
func (lt *lockTab) eachRef(f func(m uint64, l *vc.VC)) {
	for i := range lt.keys {
		if lt.meta[i]&slotUsed != 0 {
			f(lt.keys[i], &lt.vcs[i])
		}
	}
}

// bytes is the table's contribution to the shadow footprint: the slot
// arrays (33 bytes per slot) plus each stored clock's backing array and
// the per-entry overhead the footprint model charges for sync objects.
func (lt *lockTab) bytes() int64 {
	b := int64(cap(lt.keys))*8 + int64(cap(lt.vcs))*24 + int64(cap(lt.meta))
	for i := range lt.vcs {
		b += int64(lt.vcs[i].Bytes())
	}
	return b
}
