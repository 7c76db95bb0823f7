package transport

// Datagrams returns how many data datagrams, and how many others
// (control units and their acks), the bus's endpoints have written.
func Datagrams(b *UDPBus) (data, other int64) {
	for kind := range b.sent {
		if n := b.sent[kind].Load(); kind == kindData {
			data += n
		} else {
			other += n
		}
	}
	return data, other
}
