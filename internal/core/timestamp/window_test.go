package timestamp

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestWindowMatchesSlice drives a Window and a plain sorted slice with the
// same random inserts, deletes and head drops and compares them after every
// step.
func TestWindowMatchesSlice(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var w Window[int]
	var model []int
	for step := 0; step < 20_000; step++ {
		switch op := r.Intn(10); {
		case op < 6:
			v := r.Intn(1000)
			i := w.Search(func(x *int) bool { return *x < v })
			w.Insert(i, v)
			j := 0
			for j < len(model) && model[j] < v {
				j++
			}
			model = append(model[:j], append([]int{v}, model[j:]...)...)
		case op < 7 && len(model) > 0:
			i := r.Intn(len(model))
			w.Delete(i)
			model = append(model[:i], model[i+1:]...)
		case len(model) > 0:
			n := r.Intn(len(model)/2 + 1)
			w.DropFront(n)
			model = model[n:]
		}
		got := make([]int, w.Len())
		for i := range got {
			got[i] = *w.At(i)
		}
		if len(got) != len(model) || (len(got) > 0 && !reflect.DeepEqual(got, model)) {
			t.Fatalf("step %d: window %v, want %v", step, got, model)
		}
	}
}

// TestWindowSteadyStateAllocatesNothing: appending at the tail and dropping
// the head at a constant length reuses the buffer's popped slack.
func TestWindowSteadyStateAllocatesNothing(t *testing.T) {
	var w Window[*int]
	v := new(int)
	for i := 0; i < 64; i++ {
		w.Insert(w.Len(), v)
	}
	allocs := testing.AllocsPerRun(10_000, func() {
		w.Insert(w.Len(), v)
		w.DropFront(1)
	})
	if allocs != 0 || w.Len() != 64 {
		t.Fatalf("steady state: %.2f allocs per step, Len %d", allocs, w.Len())
	}
}
