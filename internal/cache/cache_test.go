package cache

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

func TestColdMissThenHit(t *testing.T) {
	c := New(Config{Size: 1024, LineBytes: 16, Assoc: 1})
	if c.Access(0x100) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0x100) {
		t.Fatal("second access missed")
	}
	// Same line, different word.
	if !c.Access(0x104) {
		t.Fatal("same-line access missed")
	}
	// Different line.
	if c.Access(0x200) {
		t.Fatal("different line hit")
	}
	if c.Accesses != 4 || c.Misses != 2 {
		t.Fatalf("stats = %d/%d, want 4/2", c.Accesses, c.Misses)
	}
}

func TestDirectMappedConflict(t *testing.T) {
	// 256B direct-mapped, 16B lines -> 16 sets. Addresses 0 and 256 map to
	// the same set and evict each other.
	c := New(Config{Size: 256, LineBytes: 16, Assoc: 1})
	c.Access(0)
	c.Access(256)
	if c.Access(0) {
		t.Fatal("conflicting line survived in direct-mapped cache")
	}
}

func TestAssociativityAvoidsConflict(t *testing.T) {
	// Same trace with 2-way: both lines fit.
	c := New(Config{Size: 256, LineBytes: 16, Assoc: 2})
	c.Access(0)
	c.Access(128) // 8 sets now: 0 and 128 conflict in set 0
	if !c.Access(0) {
		t.Fatal("2-way cache evicted line that should fit")
	}
	if !c.Access(128) {
		t.Fatal("second way lost")
	}
}

// TestLRUReplacement is named for the policy the cache was documented
// with; the cache is not LRU (see TestReplacementEvictsLastWay). On this
// trace the last way happens to hold the least recently used line, so the
// result coincides with LRU.
func TestLRUReplacement(t *testing.T) {
	// 2-way, 32B, 16B lines -> 1 set, 2 ways.
	c := New(Config{Size: 32, LineBytes: 16, Assoc: 2})
	c.Access(0)  // miss, way 0
	c.Access(16) // miss, way 1
	c.Access(0)  // hit
	c.Access(32) // miss, set full: evicts the last way = line 16
	if !c.Access(0) {
		t.Fatal("way 0 evicted")
	}
	if c.Access(16) {
		t.Fatal("last way not evicted")
	}
}

// TestReplacementEvictsLastWay pins the real replacement policy: a miss
// fills the first invalid way, else evicts the last way, whatever the
// access order. Under LRU the trace below would evict line 0 instead.
// Changing the policy changes every board cycle count, so it must come
// with a deliberate regeneration of the recorded baselines.
func TestReplacementEvictsLastWay(t *testing.T) {
	// 1 set, 2 ways.
	c := New(Config{Size: 32, LineBytes: 16, Assoc: 2})
	c.Access(0)  // miss, way 0
	c.Access(16) // miss, way 1
	c.Access(16) // hit: line 16 is now the most recently used
	c.Access(32) // miss: evicts the last way, line 16
	// A hit changes no state, so probing line 0 first is safe.
	if !c.Access(0) {
		t.Fatal("line 0 evicted: the victim was not the last way")
	}
	if c.Access(16) {
		t.Fatal("line 16 survived: the victim was not the last way")
	}
}

func TestUncachedAlwaysMisses(t *testing.T) {
	c := New(Config{})
	for i := 0; i < 10; i++ {
		if c.Access(uint32(i * 4)) {
			t.Fatal("uncached access hit")
		}
	}
	if c.HitRate() != 0 {
		t.Fatalf("hit rate = %v, want 0", c.HitRate())
	}
}

func TestFlushAndResetStats(t *testing.T) {
	c := New(Config{Size: 1024, LineBytes: 16, Assoc: 2})
	c.Access(0)
	c.Access(0)
	c.ResetStats()
	if c.Accesses != 0 || c.Misses != 0 {
		t.Fatal("stats not reset")
	}
	if !c.Access(0) {
		t.Fatal("contents lost on ResetStats")
	}
	c.Flush()
	if c.Access(0) {
		t.Fatal("contents survived Flush")
	}
}

func TestHitRateSequentialSweep(t *testing.T) {
	// Sequential word accesses over 4KB with 16B lines: 1 miss per 4
	// accesses -> 75% hit rate.
	c := New(Config{Size: 8 * 1024, LineBytes: 16, Assoc: 2})
	for a := uint32(0); a < 4096; a += 4 {
		c.Access(a)
	}
	if got := c.HitRate(); got != 0.75 {
		t.Fatalf("sequential hit rate = %v, want 0.75", got)
	}
}

func TestPropertyHitAfterAccess(t *testing.T) {
	// Property: immediately repeating any access hits, for any cache shape.
	f := func(addrs []uint32, szSel, assocSel uint8) bool {
		sizes := []int{256, 1024, 4096}
		assocs := []int{1, 2, 4}
		c := New(Config{
			Size:      sizes[int(szSel)%len(sizes)],
			LineBytes: 16,
			Assoc:     assocs[int(assocSel)%len(assocs)],
		})
		for _, a := range addrs {
			c.Access(a)
			if !c.Access(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMissesNeverExceedAccesses(t *testing.T) {
	f := func(addrs []uint32) bool {
		c := New(Config{Size: 512, LineBytes: 16, Assoc: 2})
		for _, a := range addrs {
			c.Access(a)
		}
		return c.Misses <= c.Accesses && c.HitRate() >= 0 && c.HitRate() <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBiggerCacheNeverWorseOnRepeatTrace(t *testing.T) {
	// Property (for repeated loops): doubling the size with equal assoc
	// should not increase misses on a loop-shaped trace.
	trace := make([]uint32, 0, 4096)
	for rep := 0; rep < 8; rep++ {
		for a := uint32(0); a < 2048; a += 4 {
			trace = append(trace, a)
		}
	}
	small := New(Config{Size: 1024, LineBytes: 16, Assoc: 2})
	big := New(Config{Size: 4096, LineBytes: 16, Assoc: 2})
	for _, a := range trace {
		small.Access(a)
		big.Access(a)
	}
	if big.Misses > small.Misses {
		t.Fatalf("bigger cache missed more: %d > %d", big.Misses, small.Misses)
	}
}

// refCache is the original jagged-array cache, kept as the reference the
// flat Cache must match access for access. Its LRU counters never leave 0
// (a fill starts at 0 and touch only ages counters below the touched
// way's), so its victim is the first invalid way, else the last way.
type refCache struct {
	sets, ways int
	lineBits   uint
	tags       [][]uint32
	valid      [][]bool
	lru        [][]uint8

	Accesses, Misses uint64
}

// newRefCache builds the reference for an effective (normalized) config.
func newRefCache(cfg Config) *refCache {
	r := &refCache{}
	if cfg.Size <= 0 {
		return r
	}
	r.ways = cfg.Assoc
	r.sets = cfg.Size / cfg.LineBytes / cfg.Assoc
	for lb := cfg.LineBytes; lb > 1; lb >>= 1 {
		r.lineBits++
	}
	r.tags = make([][]uint32, r.sets)
	r.valid = make([][]bool, r.sets)
	r.lru = make([][]uint8, r.sets)
	for s := 0; s < r.sets; s++ {
		r.tags[s] = make([]uint32, r.ways)
		r.valid[s] = make([]bool, r.ways)
		r.lru[s] = make([]uint8, r.ways)
	}
	return r
}

func (r *refCache) Access(addr uint32) bool {
	r.Accesses++
	if r.sets == 0 {
		r.Misses++
		return false
	}
	line := addr >> r.lineBits
	set := int(line) % r.sets
	tag := line / uint32(r.sets)
	for w := 0; w < r.ways; w++ {
		if r.valid[set][w] && r.tags[set][w] == tag {
			r.touch(set, w)
			return true
		}
	}
	r.Misses++
	victim := -1
	for w := 0; w < r.ways; w++ {
		if !r.valid[set][w] {
			victim = w
			break
		}
	}
	if victim < 0 {
		worst := uint8(0)
		victim = 0
		for w := 0; w < r.ways; w++ {
			if r.lru[set][w] >= worst {
				worst = r.lru[set][w]
				victim = w
			}
		}
	}
	r.valid[set][victim] = true
	r.tags[set][victim] = tag
	r.touch(set, victim)
	return false
}

func (r *refCache) touch(set, way int) {
	cur := r.lru[set][way]
	for w := range r.lru[set] {
		if r.lru[set][w] < cur {
			r.lru[set][w]++
		}
	}
	r.lru[set][way] = 0
}

func (r *refCache) ResetStats() { r.Accesses, r.Misses = 0, 0 }

func (r *refCache) Flush() {
	for s := range r.valid {
		for w := range r.valid[s] {
			r.valid[s][w], r.lru[s][w], r.tags[s][w] = false, 0, 0
		}
	}
	r.ResetStats()
}

// diffStreams are the address streams of the differential test: seeded
// random (narrow and full 32-bit range), strided, and line-repeating.
func diffStreams() map[string][]uint32 {
	rng := rand.New(rand.NewSource(13))
	streams := map[string][]uint32{}
	var narrow, wide []uint32
	for i := 0; i < 20000; i++ {
		narrow = append(narrow, uint32(rng.Intn(8192)))
		wide = append(wide, rng.Uint32())
	}
	streams["random-narrow"] = narrow
	streams["random-wide"] = wide
	for _, stride := range []uint32{1, 4, 16, 48, 256, 4096} {
		var s []uint32
		for rep := 0; rep < 4; rep++ {
			for i := uint32(0); i < 1500; i++ {
				s = append(s, i*stride)
			}
		}
		streams["stride-"+strconv.Itoa(int(stride))] = s
	}
	// Repeated lines, conflicting ping-pong, and the ends of the address
	// space (line 0xFFFFFFFF exists only with one-byte lines).
	var rep []uint32
	for i := 0; i < 3000; i++ {
		a := uint32(rng.Intn(64)) * 16
		for k := rng.Intn(5); k >= 0; k-- {
			rep = append(rep, a+uint32(k))
		}
		rep = append(rep, 0, 1024, 0, 2048, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFF0, 0)
	}
	streams["line-repeat"] = rep
	return streams
}

// TestFlatMatchesReference drives the flat Cache and the reference with
// the same streams over every geometry class — the normalization rows,
// direct-mapped, 1- to 8-way, non-power-of-two set counts, one-byte lines,
// the board and ISS geometries, and the uncached configs — and requires
// the same hit/miss on every access and the same counters, including
// across ResetStats and Flush (which must both clear the last-line memo).
func TestFlatMatchesReference(t *testing.T) {
	cfgs := []Config{
		{Size: 1024, LineBytes: 16, Assoc: 2},
		{Size: 64, LineBytes: 16, Assoc: 8},
		{Size: 8, LineBytes: 16, Assoc: 1},
		{Size: 256, LineBytes: 24, Assoc: 1},
		{Size: 256, LineBytes: 0, Assoc: 0},
		{Size: 256, LineBytes: -8, Assoc: -3},
		{},
		{Size: -64, LineBytes: 16, Assoc: 2},
		{Size: 768, LineBytes: 16, Assoc: 1}, // 48 sets
		{Size: 96, LineBytes: 16, Assoc: 2},  // 3 sets
		{Size: 4, LineBytes: 1, Assoc: 4},    // 1 set of one-byte lines
		{Size: 64, LineBytes: 1, Assoc: 2},
		{Size: 2048, LineBytes: 8, Assoc: 1},
	}
	for assoc := 1; assoc <= 8; assoc++ {
		cfgs = append(cfgs, Config{Size: 2048, LineBytes: 16, Assoc: assoc})
	}
	for _, size := range []int{2048, 4096, 8192, 16384, 32768} {
		cfgs = append(cfgs, Config{Size: size, LineBytes: DefaultLine, Assoc: 2})
	}
	streams := diffStreams()
	for _, cfg := range cfgs {
		for name, stream := range streams {
			c := New(cfg)
			r := newRefCache(c.Config())
			for i, a := range stream {
				switch i {
				case len(stream) / 3:
					c.ResetStats()
					r.ResetStats()
					if c.last != 0 {
						t.Fatalf("%+v: ResetStats kept the last-line memo", cfg)
					}
				case 2 * len(stream) / 3:
					c.Flush()
					r.Flush()
				}
				if got, want := c.Access(a), r.Access(a); got != want {
					t.Fatalf("%+v %s: access %d (%#x) hit=%v, reference %v", cfg, name, i, a, got, want)
				}
			}
			if c.Accesses != r.Accesses || c.Misses != r.Misses {
				t.Fatalf("%+v %s: counters %d/%d, reference %d/%d",
					cfg, name, c.Accesses, c.Misses, r.Accesses, r.Misses)
			}
		}
	}
}
