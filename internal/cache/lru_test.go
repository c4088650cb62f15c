package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func row(n int, fill float64) []float64 {
	r := make([]float64, n)
	for i := range r {
		r[i] = fill
	}
	return r
}

func TestGetMiss(t *testing.T) {
	c := New(1024)
	if _, ok := c.Get(7); ok {
		t.Fatal("Get on empty cache hit")
	}
	_, misses, _ := c.Stats()
	if misses != 1 {
		t.Fatalf("misses = %d, want 1", misses)
	}
}

func TestPutGet(t *testing.T) {
	c := New(1024)
	c.Put(3, row(10, 1.5))
	got, ok := c.Get(3)
	if !ok || len(got) != 10 || got[0] != 1.5 {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	if c.Len() != 1 || c.UsedBytes() != 80 {
		t.Fatalf("Len=%d Used=%d", c.Len(), c.UsedBytes())
	}
}

func TestEvictionLRUOrder(t *testing.T) {
	c := New(240) // room for 3 rows of 10
	c.Put(1, row(10, 1))
	c.Put(2, row(10, 2))
	c.Put(3, row(10, 3))
	// Touch 1 so 2 becomes LRU.
	if _, ok := c.Get(1); !ok {
		t.Fatal("1 missing")
	}
	c.Put(4, row(10, 4))
	if _, ok := c.Get(2); ok {
		t.Fatal("2 should have been evicted")
	}
	for _, k := range []int{1, 3, 4} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%d should be cached", k)
		}
	}
	_, _, ev := c.Stats()
	if ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
}

func TestPutReplaceResizes(t *testing.T) {
	c := New(1000)
	c.Put(1, row(10, 1))
	c.Put(1, row(50, 2))
	if c.Len() != 1 || c.UsedBytes() != 400 {
		t.Fatalf("Len=%d Used=%d", c.Len(), c.UsedBytes())
	}
	got, _ := c.Get(1)
	if len(got) != 50 || got[0] != 2 {
		t.Fatal("replacement not visible")
	}
}

func TestOversizeRowNotCached(t *testing.T) {
	c := New(100)
	c.Put(1, row(100, 1)) // 800 bytes > budget
	if _, ok := c.Get(1); ok {
		t.Fatal("oversize row cached")
	}
	if c.Len() != 0 {
		t.Fatal("Len != 0")
	}
}

func TestZeroBudgetDisables(t *testing.T) {
	c := New(0)
	c.Put(1, row(4, 1))
	if _, ok := c.Get(1); ok {
		t.Fatal("zero-budget cache stored a row")
	}
}

// Property: the cache never exceeds its byte budget and Get returns exactly
// what was Put most recently for the key.
func TestBudgetInvariantQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		budget := int64(200 + rng.Intn(2000))
		c := New(budget)
		shadow := map[int]float64{}
		for op := 0; op < 300; op++ {
			key := rng.Intn(20)
			if rng.Float64() < 0.6 {
				fill := rng.Float64()
				c.Put(key, row(1+rng.Intn(20), fill))
				shadow[key] = fill
			} else if got, ok := c.Get(key); ok {
				if got[0] != shadow[key] {
					return false // stale value
				}
			}
			if c.UsedBytes() > budget {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCacheGetHit(b *testing.B) {
	c := New(1 << 20)
	c.Put(1, row(1000, 1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Get(1)
	}
}
