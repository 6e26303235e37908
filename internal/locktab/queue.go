package locktab

import "repro/internal/txn"

// Link is one request's place in a record's Queue, embedded in the request
// it belongs to. The caller sets Owner (what a grant hands back) and Mode
// before Push; the queue keeps Granted and the links. Granted is a plain
// bit, like everything else here: only the queue's owner reads or writes
// it.
type Link[T any] struct {
	Owner      *T
	Mode       txn.Mode
	Granted    bool
	prev, next *Link[T]
}

// Queue is one record's FIFO request queue under the package's grant rule.
// The zero value is an empty queue. Its methods touch only the concrete
// Link, never a method of T: Go compiles a generic body once per GC shape
// and calls a type parameter's methods through a dictionary, so a body
// that only moves pointers and bits is the one that stays as cheap as a
// hand-written queue.
type Queue[T any] struct {
	head, tail *Link[T]
	waiters    int // requests not yet granted
	writers    int // write requests, granted or not
}

// Grantable reports whether a request of mode m pushed now would be
// granted at once. Any conflicting request ahead blocks it, granted or
// waiting, so a write needs an empty queue and a read a writer-free one:
// the counts answer without a walk.
func (q *Queue[T]) Grantable(m txn.Mode) bool {
	return q.head == nil || m == txn.Read && q.writers == 0
}

// Push appends l and reports whether it is granted at once.
func (q *Queue[T]) Push(l *Link[T]) bool {
	l.Granted = q.Grantable(l.Mode)
	l.prev, l.next = q.tail, nil
	if q.tail != nil {
		q.tail.next = l
	} else {
		q.head = l
	}
	q.tail = l
	if l.Mode == txn.Write {
		q.writers++
	}
	if !l.Granted {
		q.waiters++
	}
	return l.Granted
}

// Remove unlinks l, granted or waiting, and appends to out the owners of
// the requests its leaving grants. (One call rather than two: inlined
// into a caller's release path, the grant loop's frame costs the
// uncontended lock more than the call does.)
func (q *Queue[T]) Remove(l *Link[T], out []*T) []*T {
	if l.prev != nil {
		l.prev.next = l.next
	} else {
		q.head = l.next
	}
	if l.next != nil {
		l.next.prev = l.prev
	} else {
		q.tail = l.prev
	}
	l.prev, l.next = nil, nil
	if l.Mode == txn.Write {
		q.writers--
	}
	if !l.Granted {
		q.waiters--
	}
	return q.grantPrefix(out)
}

// grantPrefix grants the longest compatible prefix of the queue and
// appends the owners of the requests it granted to out, in queue order.
func (q *Queue[T]) grantPrefix(out []*T) []*T {
	if q.waiters == 0 {
		return out
	}
	var grantedWrite, grantedRead bool
	for cur := q.head; cur != nil; cur = cur.next {
		if !cur.Granted {
			if grantedWrite || cur.Mode == txn.Write && grantedRead {
				return out
			}
			cur.Granted = true
			q.waiters--
			out = append(out, cur.Owner)
		}
		if cur.Mode == txn.Write {
			grantedWrite = true
		} else {
			grantedRead = true
		}
	}
	return out
}

// Conflicts appends to out the owners of the requests ahead of l that
// conflict with mode m, granted or waiting; a nil l means the whole queue,
// as seen by a request not yet pushed.
func (q *Queue[T]) Conflicts(l *Link[T], m txn.Mode, out []*T) []*T {
	for cur := q.head; cur != nil && cur != l; cur = cur.next {
		if cur.Mode.Conflicts(m) {
			out = append(out, cur.Owner)
		}
	}
	return out
}

// Empty reports whether nothing is queued.
func (q *Queue[T]) Empty() bool { return q.head == nil }
