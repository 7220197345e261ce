package obs

// Ring keeps the newest values pushed into it, up to a fixed capacity:
// once full, each Push overwrites the oldest. It is the one history
// buffer of the span Tracer, the Logger, the ControlRecorder and every
// tsdb series. It takes no lock — each owner already holds a mutex over
// the state the ring sits in — so it is not safe for concurrent use on
// its own. (The flight recorder's probe rings are lock-free instead and
// keep their own type.) The backing array grows by append up to the
// capacity, so a large ring costs only what it holds; a full ring
// pushes without allocating.
type Ring[T any] struct {
	buf    []T
	cap    int
	next   int // the slot the next overwrite lands in: the oldest value
	pushes int
}

// NewRing makes a ring keeping the newest capacity values (at least one).
func NewRing[T any](capacity int) Ring[T] {
	return Ring[T]{cap: max(capacity, 1)}
}

// Push appends v, overwriting the oldest value when the ring is full; it
// reports whether it overwrote one.
func (r *Ring[T]) Push(v T) bool {
	r.pushes++
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, v)
		return false
	}
	r.buf[r.next] = v
	if r.next++; r.next == r.cap {
		r.next = 0
	}
	return true
}

// Len is how many values the ring holds.
func (r *Ring[T]) Len() int { return len(r.buf) }

// Pushes is how many values were ever pushed; Overwrites is how many of
// them the ring has since evicted.
func (r *Ring[T]) Pushes() int     { return r.pushes }
func (r *Ring[T]) Overwrites() int { return r.pushes - len(r.buf) }

// Ordered returns a copy of the held values, oldest first.
func (r *Ring[T]) Ordered() []T {
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}
