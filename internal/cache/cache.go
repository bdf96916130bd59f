// Package cache implements a set-associative, write-allocate cache
// simulator. It is the memory-hierarchy substrate of the cycle-accurate
// board model and of PUM calibration: the statistical hit rates in the
// processing unit model are profiled against these caches.
package cache

// Config describes one cache.
type Config struct {
	Size      int // total bytes; 0 disables the cache (every access misses)
	LineBytes int // line size in bytes
	Assoc     int // ways per set
}

// DefaultLine is the line size used across the board model.
const DefaultLine = 16

// Cache is one direct-mapped or set-associative cache.
//
// Replacement is not LRU: a miss fills the first invalid way of its set,
// and once the set is full it evicts the last way. Hits change no state,
// so the valid ways of a set are always a prefix of it. This is the policy
// the board and the calibrated models were measured with; switching to
// real LRU changes every board cycle count.
type Cache struct {
	cfg      Config
	sets     int
	lineBits uint
	setMask  uint64 // sets-1 when sets is a power of two, else 0 (use %)
	pow2     bool
	// keys holds line number + 1 per way at [set*Assoc+way]; 0 is an
	// empty way. The key is 64 bits wide so every 32-bit line number,
	// including 0xFFFFFFFF (one-byte lines), stays distinct from empty.
	keys []uint64
	// last is the key of the previous access, 0 when unknown. That line
	// is resident (it was just hit or filled) and a hit changes no state,
	// so repeating it is a hit without a lookup.
	last uint64

	Accesses uint64
	Misses   uint64
}

// New builds a cache; a non-positive size returns a cache where every
// access misses (the uncached configuration).
//
// Degenerate configurations are normalized rather than trusted verbatim,
// so the allocated geometry never exceeds the configured size and the
// address decomposition always agrees with the capacity math:
//
//   - a non-positive or non-power-of-two LineBytes is replaced by
//     DefaultLine / rounded down to the previous power of two (the line
//     shift `lineBits` and the Size/LineBytes capacity division would
//     otherwise disagree, aliasing distinct lines onto one set+tag);
//   - LineBytes is clamped to at most the previous power of two of Size,
//     so even a tiny cache holds at least one full line within budget;
//   - a non-positive Assoc becomes direct-mapped (1), and Assoc is
//     clamped to the total line count — a Size smaller than
//     LineBytes*Assoc used to silently allocate a 1-set × Assoc-way
//     cache *larger* than configured.
//
// The effective geometry is readable via Config().
func New(cfg Config) *Cache {
	if cfg.Size <= 0 {
		return &Cache{cfg: Config{Size: 0, LineBytes: 0, Assoc: 0}}
	}
	if cfg.LineBytes <= 0 {
		cfg.LineBytes = DefaultLine
	}
	cfg.LineBytes = prevPow2(cfg.LineBytes)
	if cfg.LineBytes > cfg.Size {
		cfg.LineBytes = prevPow2(cfg.Size)
	}
	if cfg.Assoc <= 0 {
		cfg.Assoc = 1
	}
	lines := cfg.Size / cfg.LineBytes // >= 1 after the clamps above
	if cfg.Assoc > lines {
		cfg.Assoc = lines
	}
	c := &Cache{cfg: cfg}
	c.sets = lines / cfg.Assoc
	for lb := cfg.LineBytes; lb > 1; lb >>= 1 {
		c.lineBits++
	}
	c.pow2 = c.sets&(c.sets-1) == 0
	if c.pow2 {
		c.setMask = uint64(c.sets - 1)
	}
	c.keys = make([]uint64, c.sets*cfg.Assoc)
	return c
}

// prevPow2 returns the largest power of two <= v (v must be >= 1).
func prevPow2(v int) int {
	p := 1
	for p <= v/2 {
		p <<= 1
	}
	return p
}

// Config returns the effective (normalized) configuration.
func (c *Cache) Config() Config { return c.cfg }

// Capacity returns the allocated capacity in bytes (sets × ways × line).
func (c *Cache) Capacity() int { return c.sets * c.cfg.Assoc * c.cfg.LineBytes }

// Enabled reports whether the cache holds any lines.
func (c *Cache) Enabled() bool { return c.sets > 0 }

// Access simulates one access to the byte address and reports whether it
// hit. Misses allocate the line (write-allocate for stores as well).
func (c *Cache) Access(addr uint32) bool {
	c.Accesses++
	return uint64(addr>>c.lineBits)+1 == c.last || c.lookup(addr)
}

// lookup resolves an access that missed the last-line memo.
func (c *Cache) lookup(addr uint32) bool {
	if c.sets == 0 {
		c.Misses++
		return false
	}
	line := uint64(addr >> c.lineBits)
	key := line + 1
	set := line & c.setMask
	if !c.pow2 {
		set = line % uint64(c.sets)
	}
	base := int(set) * c.cfg.Assoc
	ways := c.keys[base : base+c.cfg.Assoc]
	c.last = key
	for w, k := range ways {
		if k == key {
			return true
		}
		if k == 0 { // valid ways are a prefix: the line is absent
			c.Misses++
			ways[w] = key
			return false
		}
	}
	c.Misses++
	ways[len(ways)-1] = key
	return false
}

// HitRate returns the observed hit rate (1.0 when no accesses were made,
// matching the optimistic default of an idle statistics source).
func (c *Cache) HitRate() float64 {
	if c.Accesses == 0 {
		return 1.0
	}
	return 1.0 - float64(c.Misses)/float64(c.Accesses)
}

// ResetStats clears the counters and the last-line memo but keeps cache
// contents.
func (c *Cache) ResetStats() {
	c.Accesses = 0
	c.Misses = 0
	c.last = 0
}

// Flush invalidates all lines and clears statistics.
func (c *Cache) Flush() {
	clear(c.keys)
	c.ResetStats()
}
