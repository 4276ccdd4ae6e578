package transport

import (
	"testing"

	"rcuda/internal/raceflag"
)

func TestPoolClassBuckets(t *testing.T) {
	cases := []struct {
		n    int
		want int
	}{
		{0, 0},
		{1, 0},
		{64, 0},
		{65, 1},
		{128, 1},
		{1 << 20, 20 - minPoolClass},
		{1 << maxPoolClass, maxPoolClass - minPoolClass},
		{1<<maxPoolClass + 1, -1},
	}
	for _, c := range cases {
		if got := poolClass(c.n); got != c.want {
			t.Errorf("poolClass(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestGetBufferCapacityAndReuse(t *testing.T) {
	buf, _ := GetBuffer(100)
	if len(buf) != 0 || cap(buf) < 100 {
		t.Fatalf("GetBuffer(100): len %d cap %d", len(buf), cap(buf))
	}
	if cap(buf) != 128 {
		t.Fatalf("GetBuffer(100) should round up to the 128 B class, got cap %d", cap(buf))
	}
	PutBuffer(buf)
	again, hit := GetBuffer(70)
	if !hit && !raceflag.Enabled {
		t.Fatal("a just-recycled buffer of the same class must be a pool hit")
	}
	if cap(again) != 128 {
		t.Fatalf("reused buffer cap %d, want 128", cap(again))
	}
}

func TestGetBufferOversizeUnpooled(t *testing.T) {
	n := 1<<maxPoolClass + 1
	buf, hit := GetBuffer(n)
	if hit {
		t.Fatal("oversize request cannot be a pool hit")
	}
	if cap(buf) != n {
		t.Fatalf("oversize buffer cap %d, want exactly %d", cap(buf), n)
	}
	// PutBuffer must silently drop it rather than poison a bucket.
	PutBuffer(buf)
}

func TestPutBufferDropsUndersized(t *testing.T) {
	// A sub-class slice (e.g. a frame payload resliced below its class
	// floor) must not go back: a later Get of its apparent class would
	// receive a too-small buffer.
	odd := make([]byte, 0, 100) // class says 128, capacity says 100
	PutBuffer(odd)
	buf, hit := GetBuffer(128)
	for hit && cap(buf) >= 128 {
		// Drain anything valid other tests left in the bucket.
		buf, hit = GetBuffer(128)
	}
	if hit {
		t.Fatalf("pool served an undersized buffer: cap %d", cap(buf))
	}
}
