package store

import (
	"sync"
	"sync/atomic"

	"axml/internal/doc"
	"axml/internal/xmlio"
)

// renderedVersions bounds how many versions a Repository keeps rendering
// slots for: the most recently exchanged ones, as many as Disk's hot tier
// holds documents by default. Disk keeps each slot on its hot-cache entry,
// so its bound is the hot tier itself.
const renderedVersions = DefaultHotCache

// renderSlot holds the rendering of one stored version. A rendering pays
// off only for a version that is exchanged again and again, so it is built
// on the version's second exchange: the first prints the version in full,
// and a version exchanged once — write-then-exchange traffic, or many
// documents sent once each — costs no rendering and retains no bytes. A
// backend drops the slot when the version is replaced or deleted, or when
// it leaves the backend's bounded set of rendered versions.
type renderSlot struct {
	node *doc.Node
	seen atomic.Bool
	once sync.Once
	r    *xmlio.Rendering
}

// rendering returns nil on the slot's first call, and on every later call
// the version's rendering, building it once. It is called outside the
// store lock: concurrent readers wait for one build.
func (s *renderSlot) rendering() *xmlio.Rendering {
	if !s.seen.Load() && !s.seen.Swap(true) {
		return nil
	}
	s.once.Do(func() { s.r = xmlio.Render(s.node) })
	return s.r
}
