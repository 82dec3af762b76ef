package bufpool

import "testing"

func TestClassIndex(t *testing.T) {
	cases := []struct{ n, idx, size int }{
		{1, 0, 64},
		{64, 0, 64},
		{65, 1, 128},
		{128, 1, 128},
		{129, 2, 256},
		{4096, 6, 4096},
		{4097, 7, 8192},
		{8 << 20, classIndex(8 << 20), 8 << 20},
	}
	for _, c := range cases {
		if got := classIndex(c.n); got != c.idx {
			t.Errorf("classIndex(%d) = %d, want %d", c.n, got, c.idx)
		}
		if got := classSize(classIndex(c.n)); got != c.size {
			t.Errorf("classSize(classIndex(%d)) = %d, want %d", c.n, got, c.size)
		}
	}
}

func TestGetPutRecycles(t *testing.T) {
	p := New()
	a := p.Get(100)
	if len(a) != 100 || cap(a) != 128 {
		t.Fatalf("Get(100): len=%d cap=%d, want 100/128", len(a), cap(a))
	}
	p.Put(a)
	b := p.Get(90)
	if len(b) != 90 || cap(b) != 128 {
		t.Fatalf("Get(90) after Put: len=%d cap=%d", len(b), cap(b))
	}
	if &a[0] != &b[0] {
		t.Fatal("Get after Put did not reuse the pooled buffer")
	}
	gets, hits := p.Stats()
	if gets != 2 || hits != 1 {
		t.Fatalf("Stats = %d gets, %d hits; want 2, 1", gets, hits)
	}
	if got := p.held(); got != firstBlock {
		t.Fatalf("the pool holds %d bytes after one miss of class 128 and one hit, want the first block's %d", got, firstBlock)
	}
	if p.Outstanding() != 1 {
		t.Fatalf("Outstanding = %d with one buffer out, want 1", p.Outstanding())
	}
}

func TestOversizeAndForeignBuffersNotRetained(t *testing.T) {
	p := New()
	big := p.Get(maxClass + 1)
	if len(big) != maxClass+1 {
		t.Fatalf("oversize Get: len=%d", len(big))
	}
	p.Put(big)
	foreign := make([]byte, 100) // cap 100 is not a class size
	p.Put(foreign)
	if p.held() != 0 || p.Outstanding() != 0 {
		t.Fatalf("the pool holds %d bytes and counts %d buffers out after an oversize Get and two foreign Puts, want 0 and 0",
			p.held(), p.Outstanding())
	}
	for i, list := range p.classes {
		if len(list) != 0 {
			t.Fatalf("class %d retained %d buffers", i, len(list))
		}
	}
}

func TestGetZero(t *testing.T) {
	p := New()
	if buf := p.Get(0); buf != nil {
		t.Fatalf("Get(0) = %v, want nil", buf)
	}
}

func TestSteadyStateAllocFree(t *testing.T) {
	p := New()
	p.Put(p.Get(4096)) // warm the class
	allocs := testing.AllocsPerRun(100, func() {
		buf := p.Get(4096)
		buf[0] = 1
		p.Put(buf)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Get/Put allocates %.1f per op, want 0", allocs)
	}
}

func TestPoison(t *testing.T) {
	Poison(true)
	p := New()
	Poison(false)
	if clean := New(); clean.poison {
		t.Fatal("a pool created after Poison(false) is poisoned")
	}
	filled := func(b []byte) bool {
		for _, v := range b {
			if v != poisonByte {
				return false
			}
		}
		return true
	}
	fresh := p.Get(100)
	if !filled(fresh) {
		t.Fatalf("a fresh buffer is handed out as % x", fresh[:8])
	}
	for i := range fresh {
		fresh[i] = byte(i)
	}
	p.Put(fresh)
	if !filled(fresh[:cap(fresh)]) {
		t.Fatal("a returned buffer keeps its contents")
	}
	fresh[0] = 1 // a write after release
	if again := p.Get(128); &again[0] != &fresh[0] || !filled(again) {
		t.Fatal("a recycled buffer is handed out with stale contents")
	}
}
