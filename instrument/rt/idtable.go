package rt

// idTable densifies one namespace: it gives each address the next id,
// 0, 1, 2, ..., the first time the address is looked up. It is an
// open-addressing hash table with linear probing: a Fibonacci hash
// takes the top bits of the address times 2^64/φ as the home slot, and
// the table doubles when an insert would fill more than half of it.
//
// A slot holds only an id, 4 bytes; the addresses sit in id order in
// addrs. Every table page an instrumented program touches is a fresh
// page fault, so the small slot pays for the second load a hit makes.
// An id fits in a slot: 2^32 addresses would take 32 GiB of addrs.
// Entries are never removed. Caller holds the stream mutex.
type idTable struct {
	slots []uint32  // id+1 of the entry probed here; 0 marks an empty slot
	addrs []uintptr // the addresses, by id
	shift uint      // 64 - log2(len(slots))
}

const (
	minIDSlots = 64                 // a fresh table's size
	fibMul     = 0x9e3779b97f4a7c15 // 2^64/φ, rounded to odd
)

func newIDTable() idTable {
	return idTable{slots: make([]uint32, minIDSlots), shift: 64 - 6}
}

// id returns p's id, assigning the next one on first sight.
func (t *idTable) id(p uintptr) uint64 {
	mask := uint64(len(t.slots) - 1)
	for i := t.home(p); ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			if 2*(len(t.addrs)+1) > len(t.slots) {
				t.grow()
				return t.id(p)
			}
			t.addrs = append(t.addrs, p)
			t.slots[i] = uint32(len(t.addrs))
			return uint64(len(t.addrs) - 1)
		}
		if t.addrs[s-1] == p {
			return uint64(s - 1)
		}
	}
}

// home is p's first probe: the top bits of the Fibonacci hash.
func (t *idTable) home(p uintptr) uint64 { return uint64(p) * fibMul >> t.shift }

// grow doubles the table and re-inserts every address under its id.
// addrs gets room for every id the new table takes before it grows
// again.
func (t *idTable) grow() {
	t.slots = make([]uint32, 2*len(t.slots))
	t.addrs = append(make([]uintptr, 0, len(t.slots)/2), t.addrs...)
	t.shift--
	mask := uint64(len(t.slots) - 1)
	for id, p := range t.addrs {
		i := t.home(p)
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = uint32(id + 1)
	}
}
