// Package keys pins that the hotpath and noalloc rules, checked by one
// walk, keep separate suppression keys: each line below both allocates
// and blocks, and its allow silences only the rule it names.
package keys

type item struct{ k uint64 }

//orthrus:hotpath
func loop(ch chan *item, done chan []int) {
	//orthrus:allow(noalloc) testdata: the allocation is excused, the blocking send is not
	ch <- &item{k: 1} // want `blocking channel send on the hot path`

	//orthrus:allow(hotpath) testdata: the blocking send is excused, the allocation is not
	done <- make([]int, 4) // want `make allocates on the hot path`
}
