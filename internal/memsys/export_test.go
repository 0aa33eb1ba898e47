package memsys

import "unsafe"

// CacheHighHalf reports whether c has allocated its high tag halves.
func CacheHighHalf(c *Cache) bool { return c.tagsHi != nil }

// CacheBytesPerWay returns the bytes of line-state arrays c holds per way.
func CacheBytesPerWay(c *Cache) int {
	n := cap(c.tags)*int(unsafe.Sizeof(c.tags[0])) +
		cap(c.tagsHi)*int(unsafe.Sizeof(c.tagsHi[0])) +
		cap(c.lastUse)*int(unsafe.Sizeof(c.lastUse[0])) +
		cap(c.flags)*int(unsafe.Sizeof(c.flags[0]))
	return n / len(c.tags)
}
