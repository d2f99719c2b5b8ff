package queue

// Tags maps the tags of work in flight to values: the request tags a
// thread's LSQ waits on, the device tags a response router awaits.
// Tag t lives in slot t mod len, and a new tag that lands on another
// live tag doubles the slots; live tags distinct mod n stay distinct
// mod 2n. A caller that numbers its tags upward therefore stops the
// growth once the slots span its oldest tag in flight, and from then
// on Put and Take allocate nothing, where a map's churn would. A tag
// left in flight for good keeps its slot, and the slots grow to span
// it. The zero value is an empty table.
type Tags[V any] struct {
	slots []tagSlot[V]
	live  int
}

type tagSlot[V any] struct {
	tag  uint64
	v    V
	live bool
}

// minTags is the slot count of the first allocation.
const minTags = 64

// Put records v under tag. A tag already in flight takes the new
// value, as in a map.
func (t *Tags[V]) Put(tag uint64, v V) {
	for {
		if len(t.slots) > 0 {
			s := t.slot(tag)
			if !s.live || s.tag == tag {
				if !s.live {
					t.live++
				}
				*s = tagSlot[V]{tag: tag, v: v, live: true}
				return
			}
		}
		t.grow()
	}
}

// Take removes tag and returns its value, or ok=false when the tag is
// not in flight.
func (t *Tags[V]) Take(tag uint64) (v V, ok bool) {
	if len(t.slots) == 0 {
		return v, false
	}
	s := t.slot(tag)
	if !s.live || s.tag != tag {
		return v, false
	}
	v = s.v
	*s = tagSlot[V]{}
	t.live--
	return v, true
}

// Len returns the number of tags in flight.
func (t *Tags[V]) Len() int { return t.live }

// Each calls f for every tag in flight, in slot order.
func (t *Tags[V]) Each(f func(tag uint64, v V)) {
	for _, s := range t.slots {
		if s.live {
			f(s.tag, s.v)
		}
	}
}

// Reset empties the table, keeping its slots.
func (t *Tags[V]) Reset() {
	clear(t.slots)
	t.live = 0
}

func (t *Tags[V]) slot(tag uint64) *tagSlot[V] {
	return &t.slots[tag&uint64(len(t.slots)-1)]
}

func (t *Tags[V]) grow() {
	old := t.slots
	t.slots = make([]tagSlot[V], max(2*len(old), minTags))
	for _, s := range old {
		if s.live {
			*t.slot(s.tag) = s
		}
	}
}
