package radio

// Mix64 is the splitmix64 finalizer: a cheap, well-mixed keyed hash used
// for block seeds and per-frame erasure coins.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Delivered is the content-keyed erasure coin every broadcast bus uses:
// whether receiver `to` gets x-packet `seq` of round `round` under erasure
// probability p, on a bus keyed by seed. It is a pure function of its
// arguments — no rng stream — so delivery outcomes cannot depend on frame
// arrival order, injected delays, or which other receivers are attached.
// That property is what lets a leader compute reception sets from the
// schedule (identical to what a live bus delivers), keeps keystream bytes
// re-derivable under any timing, and keeps an observer's tap from
// changing what the terminals receive.
func Delivered(seed int64, round, seq, to int, p float64) bool {
	h := Mix64(uint64(seed) ^ Mix64(uint64(round)<<40|uint64(seq)<<16|uint64(to)))
	// 53 uniform mantissa bits, as rand.Float64 constructs its values.
	return float64(h>>11)/(1<<53) >= p
}
