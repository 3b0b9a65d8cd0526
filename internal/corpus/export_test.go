package corpus

// Accessors only the tests call.

// Mapped reports whether the store's columns currently alias a live
// memory-mapped file.
func (s *Store) Mapped() bool {
	return s.mm != nil && s.mm.refs.Load() > 0
}

// RefsCSR returns the article→references CSR pair (duplicates kept).
func (s *Store) RefsCSR() (offsets []int64, refs []ArticleID) {
	return s.refOff, s.refs
}
