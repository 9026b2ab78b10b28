package timestamp

// Window holds per-timestamp records in ascending time order. Callers keep
// the order (Search finds the insertion point) and trim closed times from
// the head with DropFront, so appending at the tail and popping from the
// head are amortized O(1) and, once the buffer has grown to the window's
// steady-state length, allocate nothing: a full buffer first compacts into
// the slack its popped head left behind. The zero value is an empty window.
type Window[T any] struct {
	buf  []T // live records are buf[head:]
	head int
}

// Len returns the number of records in the window.
func (w *Window[T]) Len() int { return len(w.buf) - w.head }

// At returns a pointer to the i-th record, 0 being the oldest. It is valid
// until the next Insert, Delete or DropFront.
func (w *Window[T]) At(i int) *T { return &w.buf[w.head+i] }

// Search returns the number of leading records for which before reports
// true; before must be true for a prefix of the window and false after it
// (a binary search, like sort.Search).
func (w *Window[T]) Search(before func(*T) bool) int {
	lo, hi := 0, w.Len()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if before(w.At(mid)) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Insert places v at index i, shifting the records from i on by one.
func (w *Window[T]) Insert(i int, v T) {
	if len(w.buf) == cap(w.buf) && w.head >= w.Len() {
		// At least half the buffer is popped slack: reuse it instead of
		// growing, which keeps the compaction cost amortized O(1).
		n := copy(w.buf, w.buf[w.head:])
		clear(w.buf[n:])
		w.buf, w.head = w.buf[:n], 0
	}
	var zero T
	w.buf = append(w.buf, zero)
	copy(w.buf[w.head+i+1:], w.buf[w.head+i:])
	w.buf[w.head+i] = v
}

// Delete removes the record at index i.
func (w *Window[T]) Delete(i int) {
	copy(w.buf[w.head+i:], w.buf[w.head+i+1:])
	var zero T
	w.buf[len(w.buf)-1] = zero
	w.buf = w.buf[:len(w.buf)-1]
}

// DropFront removes the n oldest records.
func (w *Window[T]) DropFront(n int) {
	clear(w.buf[w.head : w.head+n])
	w.head += n
	if w.head == len(w.buf) {
		w.buf, w.head = w.buf[:0], 0
	}
}
