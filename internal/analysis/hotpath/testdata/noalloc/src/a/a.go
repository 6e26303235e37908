// Package a exercises the noalloc analyzer.
package a

type item struct{ k, v uint64 }

type ring struct {
	buf  []item
	reqs [][]item
}

// loop is a hot root: everything it statically calls is checked for
// steady-state allocation.
//
//orthrus:hotpath
func loop(r *ring, n int) {
	p := &item{k: 1}             // want `composite literal escapes to the heap`
	s := []uint64{1, 2, 3}       // want `slice/map literal allocates backing store`
	m := map[uint64]uint64{1: 2} // want `slice/map literal allocates backing store`
	b := make([]byte, 16)        // want `make allocates`
	q := new(item)               // want `new allocates`
	_, _, _, _, _ = p, s, m, b, q

	v := item{k: 2} // value literal of struct type: stack, fine
	_ = v

	helper(r)
}

// helper is reached transitively from loop.
func helper(r *ring) {
	r.buf = append(r.buf, item{})           // self-append: amortized, fine
	r.buf = append(r.buf[:0], r.buf[1:]...) // self-append through reslicing: fine
	r.reqs[0] = append(r.reqs[0], item{})   // self-append on an indexed slot: fine
	other := append(r.buf, item{})          // want `assigned to a different slice`
	_ = other
	sink(append(r.buf, item{})) // want `append result is not assigned back`
}

func sink(s []item) { _ = s }

// closures: capturing allocates, capture-free does not.
//
//orthrus:hotpath
func closures(r *ring, k uint64) {
	f := func() uint64 { return k } // want `closure captures k`
	_ = f
	g := func(x uint64) uint64 { return x + 1 } // capture-free: static, fine
	_ = g(1)
}

// coldSetup is a justified traversal boundary: the walk stops.
//
//orthrus:coldpath testdata: one-time setup may allocate
func coldSetup() []item {
	return make([]item, 64)
}

//orthrus:hotpath
func loopWithBoundary(r *ring) {
	r.buf = coldSetup()
}

//orthrus:hotpath
func allowedSite(r *ring) {
	//orthrus:allow(noalloc) testdata: first-iteration scratch sizing, reused afterwards
	r.buf = make([]item, 0, 64)
}

// notHot is unannotated and unreachable from a root: anything goes.
func notHot() []item {
	return append([]item{}, item{})
}

// box is generic: a call through an instantiation resolves to the generic
// declaration, so the walk reaches its body.
type box[T any] struct{ items []*T }

func (b *box[T]) grow() {
	b.items = make([]*T, 8) // want `make allocates`
}

//orthrus:hotpath
func viaGeneric(b *box[item]) {
	b.grow()
}
