package obs

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestRingMatchesSliceModel pushes random values past wrap-around and
// checks the ring against the plain model: it holds the last cap values
// pushed, oldest first, and has overwritten pushes-cap of them.
func TestRingMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, capacity := range []int{1, 2, 3, 64} {
		r := NewRing[int](capacity)
		var model []int
		for push := 1; push <= 5*capacity+7; push++ {
			v := rng.Int()
			overwrote := r.Push(v)
			model = append(model, v)
			if overwrote != (push > capacity) {
				t.Fatalf("cap %d push %d: Push reported overwrite=%v", capacity, push, overwrote)
			}
			want := model[max(len(model)-capacity, 0):]
			if got := r.Ordered(); !reflect.DeepEqual(got, want) {
				t.Fatalf("cap %d push %d: Ordered = %v, want %v", capacity, push, got, want)
			}
			if r.Len() != len(want) || r.Pushes() != push || r.Overwrites() != max(push-capacity, 0) {
				t.Fatalf("cap %d push %d: Len %d Pushes %d Overwrites %d", capacity, push, r.Len(), r.Pushes(), r.Overwrites())
			}
		}
	}
}

// TestRingOrderedIsACopy: changing what Ordered returned leaves the ring.
func TestRingOrderedIsACopy(t *testing.T) {
	r := NewRing[int](2)
	r.Push(1)
	r.Push(2)
	r.Ordered()[0] = 9
	if got := r.Ordered(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("Ordered after editing a copy = %v", got)
	}
}

// TestRingFullPushDoesNotAllocate: once full, a push overwrites in place.
func TestRingFullPushDoesNotAllocate(t *testing.T) {
	r := NewRing[Span](64)
	s := Span{Name: "x"}
	for i := 0; i < 64; i++ {
		r.Push(s)
	}
	if n := testing.AllocsPerRun(1000, func() { r.Push(s) }); n != 0 {
		t.Fatalf("a push into a full ring allocates %v times", n)
	}
}
