package transport

// seqWindow deduplicates the control-frame sequence numbers of one sender
// in constant memory. The old implementation kept a `seen` map keyed on
// (sender, seq) for the life of the bus, which grows without bound on a
// long-lived session (the ROADMAP leak); this is its replacement on the
// UDP endpoints.
//
// Correctness rests on what the ARQ can still retransmit. A sender
// retransmits a ctrl sequence only until every receiver has acked it,
// and sequence numbers are allocated monotonically, so the lowest
// sequence number that can still arrive as a duplicate — the lowest
// unacked — trails the highest sequence observed by at most the sender's
// in-flight window (SendCtrl blocks per call; concurrent calls are
// bounded by the node count). The window therefore slides with the
// highest observed sequence: its base is a conservative stand-in for the
// lowest unacked sequence number, anything below it is long-acked and
// answered as a duplicate, and per-sequence state is kept only inside
// the window.
//
// Sequence numbers are 1-based and never wrap in practice (a session
// would need 2^32 control frames); wrap-around is not handled.

// seqWindowSize is the number of recent sequence numbers tracked per
// sender: comfortably above any in-flight ARQ window, and only 64 bytes
// of bitmap per sender.
const seqWindowSize = 512

type seqWindow struct {
	max  uint32 // highest sequence number observed
	bits [seqWindowSize / 64]uint64
}

func (w *seqWindow) get(s uint32) bool {
	i := s % seqWindowSize
	return w.bits[i/64]&(1<<(i%64)) != 0
}

func (w *seqWindow) set(s uint32) {
	i := s % seqWindowSize
	w.bits[i/64] |= 1 << (i % 64)
}

func (w *seqWindow) clear(s uint32) {
	i := s % seqWindowSize
	w.bits[i/64] &^= 1 << (i % 64)
}

// observe records seq and reports whether it had been seen before.
// Sequences at or below the sliding base (max - seqWindowSize) are
// reported as duplicates without consulting state: the ARQ guarantees
// they were delivered (and acked) long ago.
func (w *seqWindow) observe(seq uint32) bool {
	switch {
	case seq+seqWindowSize <= w.max:
		return true
	case seq > w.max:
		// Advance the window, invalidating the slots of every sequence
		// number that just slid inside it.
		if seq-w.max >= seqWindowSize {
			w.bits = [seqWindowSize / 64]uint64{}
		} else {
			for s := w.max + 1; s < seq; s++ {
				w.clear(s)
			}
		}
		w.max = seq
		w.set(seq)
		return false
	default:
		if w.get(seq) {
			return true
		}
		w.set(seq)
		return false
	}
}
