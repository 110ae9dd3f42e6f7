package harness

import "sync"

// memo caches one value per key, computed at most once: the first get of
// a key runs its function, concurrent gets of that key wait for it, and
// every get returns the value and error it produced. Errors are kept like
// values: every artifact the harness memoizes is a deterministic function
// of its key, so a retry would fail the same way. The zero memo is ready
// to use.
type memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*memoSlot[V]
}

// memoSlot is one key's value, filled by the first get.
type memoSlot[V any] struct {
	once sync.Once
	v    V
	err  error
}

// get returns k's value, running f to compute it on the key's first get.
func (m *memo[K, V]) get(k K, f func() (V, error)) (V, error) {
	m.mu.Lock()
	s, ok := m.m[k]
	if !ok {
		if m.m == nil {
			m.m = make(map[K]*memoSlot[V])
		}
		s = new(memoSlot[V])
		m.m[k] = s
	}
	m.mu.Unlock()
	s.once.Do(func() { s.v, s.err = f() })
	return s.v, s.err
}
