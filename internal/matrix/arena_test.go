package matrix

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestSlabPoolReuse(t *testing.T) {
	p := NewSlabPool[Entry](1 << 20)
	s := p.Get(1000)
	if len(s) != 0 || cap(s) < 1000 {
		t.Fatalf("Get(1000) = len %d cap %d", len(s), cap(s))
	}
	got := cap(s)
	p.Put(s)
	r := p.Get(900)
	if cap(r) != got {
		t.Fatalf("expected the pooled slab (cap %d) back, got cap %d", got, cap(r))
	}
	st := p.Stats()
	if st.Gets != 2 || st.Hits != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v, want 2 gets / 1 hit / 1 put", st)
	}
}

func TestSlabPoolBestFit(t *testing.T) {
	p := NewSlabPool[Entry](1 << 20)
	small := p.Get(100)
	big := p.Get(10000)
	p.Put(big)
	p.Put(small)
	// A small ask must take the small slab, leaving the big one for a
	// big ask.
	if got := p.Get(80); cap(got) >= 10000 {
		t.Fatalf("small ask stole the big slab (cap %d)", cap(got))
	}
	if got := p.Get(9000); cap(got) < 10000 {
		t.Fatalf("big ask missed the big slab, got cap %d", cap(got))
	}
}

func TestSlabPoolEvictionBound(t *testing.T) {
	p := NewSlabPool[Entry](1000)
	for i := 0; i < 10; i++ {
		p.Put(make([]Entry, 0, 300))
	}
	st := p.Stats()
	if st.Retained > 1000 {
		t.Fatalf("retained %d exceeds the 1000-element bound", st.Retained)
	}
	if st.Drops == 0 {
		t.Fatal("expected evictions beyond the bound")
	}
}

func TestSlabPoolNilSafe(t *testing.T) {
	var p *SlabPool[Entry]
	s := p.Get(10)
	if len(s) != 0 || cap(s) < 10 {
		t.Fatalf("nil pool Get = len %d cap %d", len(s), cap(s))
	}
	p.Put(s)
	if st := p.Stats(); st != (PoolStats{}) {
		t.Fatalf("nil pool stats = %+v", st)
	}
	var a *Arena
	if s := a.GetEntries(10); cap(s) < 10 {
		t.Fatal("nil arena GetEntries under-capacity")
	}
	a.PutEntries(nil)
	_ = a.Stats()
}

func TestCOOReleaseRefilesStorage(t *testing.T) {
	a := NewArena()
	c := NewCOOIn(a, 8, 8, 500)
	c.Add(1, 2, 3)
	c.Release()
	if st := a.Stats(); st.Puts != 1 {
		t.Fatalf("release did not refile the slab: %+v", st)
	}
	// A second builder of similar size reuses the slab.
	before := a.Stats().Hits
	d := NewCOOIn(a, 8, 8, 400)
	if a.Stats().Hits != before+1 {
		t.Fatal("fresh builder missed the refiled slab")
	}
	d.Add(0, 0, 1)
	if got := d.ToCSR().At(0, 0); got != 1 {
		t.Fatalf("reused builder produced %d, want 1", got)
	}
}

func TestCOOReleaseIsIdempotentAndGuards(t *testing.T) {
	c := NewCOOIn(NewArena(), 4, 4, 10)
	c.Add(0, 1, 2)
	c.Release()
	c.Release() // must not double-file the slab
	defer func() {
		if recover() == nil {
			t.Fatal("Add on a released COO did not panic")
		}
	}()
	c.Add(0, 0, 1)
}

func TestWindowCompactorArenaParity(t *testing.T) {
	type add struct{ w, i, j, v int }
	rng := rand.New(rand.NewSource(17))
	var adds []add
	for k := 0; k < 4000; k++ {
		adds = append(adds, add{rng.Intn(6), rng.Intn(20), rng.Intn(20), 1 + rng.Intn(4)})
	}
	run := func(wc *WindowCompactor) []*CSR {
		for _, ad := range adds {
			wc.Append(ad.w, []Entry{{Row: ad.i, Col: ad.j, Val: ad.v}}, 1, 0)
		}
		out := make([]*CSR, wc.Windows())
		for w := range out {
			out[w], _, _ = wc.Seal(w)
		}
		return out
	}
	plain := run(NewWindowCompactorArena(nil, 20, 20, 6, 0))
	a := NewArena()
	pooled := run(NewWindowCompactorArena(a, 20, 20, 6, 700))
	for w := range plain {
		if !reflect.DeepEqual(plain[w].ToCOO().Entries(), pooled[w].ToCOO().Entries()) {
			t.Fatalf("window %d differs between plain and arena compactors", w)
		}
	}
	if a.Stats().Puts == 0 {
		t.Fatal("Seal did not refile any builder slab")
	}
	// Sealing released the builders; a second compactor on the same
	// arena must reuse them and reproduce the same windows.
	pooled2 := run(NewWindowCompactorArena(a, 20, 20, 6, 700))
	if a.Stats().Hits == 0 {
		t.Fatal("second compactor did not reuse any slab")
	}
	for w := range plain {
		if !reflect.DeepEqual(plain[w].ToCOO().Entries(), pooled2[w].ToCOO().Entries()) {
			t.Fatalf("window %d differs after slab reuse", w)
		}
	}
}
