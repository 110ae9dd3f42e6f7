package rng

import (
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sequences diverge at %d", i)
		}
	}
}

func TestKnownValues(t *testing.T) {
	// splitmix64 reference values for seed 0 (from the public-domain
	// reference implementation).
	s := New(0)
	want := []uint64{
		0xe220a8397b1dcdaf,
		0x6e789e6aa1b965f4,
		0x06c45d188009454f,
	}
	for i, w := range want {
		if got := s.Uint64(); got != w {
			t.Errorf("value %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d collisions between different seeds", same)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(7)
	for i := 0; i < 10000; i++ {
		v := s.Intn(13)
		if v < 0 || v >= 13 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestInt64nPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Int64n(-1) did not panic")
		}
	}()
	New(1).Int64n(-1)
}

func TestFloat64Range(t *testing.T) {
	s := New(9)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %f", f)
		}
	}
}

func TestBoolRoughlyBalanced(t *testing.T) {
	s := New(11)
	trues := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if s.Bool() {
			trues++
		}
	}
	if trues < n/2-300 || trues > n/2+300 {
		t.Errorf("bool bias: %d/%d", trues, n)
	}
}

func TestChance(t *testing.T) {
	s := New(13)
	if s.Chance(0) {
		t.Error("Chance(0) true")
	}
	if !s.Chance(1) {
		t.Error("Chance(1) false")
	}
	hits := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if s.Chance(0.25) {
			hits++
		}
	}
	if hits < n/4-300 || hits > n/4+300 {
		t.Errorf("Chance(0.25) hit %d/%d", hits, n)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		s := New(seed)
		p := s.Perm(20)
		seen := make([]bool, 20)
		for _, v := range p {
			if v < 0 || v >= 20 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFill(t *testing.T) {
	s := New(17)
	buf := make([]int64, 100)
	s.Fill(buf, 50)
	for _, v := range buf {
		if v < 0 || v >= 50 {
			t.Fatalf("bounded fill out of range: %d", v)
		}
	}
	s.Fill(buf, 0)
	distinct := map[int64]bool{}
	for _, v := range buf {
		distinct[v] = true
	}
	if len(distinct) < 90 {
		t.Errorf("unbounded fill suspiciously repetitive: %d distinct", len(distinct))
	}
}

func TestZeroValueUsable(t *testing.T) {
	var s Source
	_ = s.Uint64() // must not panic
}
