//go:build !amd64 || purego

package packet

// Without the amd64 assembly, refill always makes four block calls.
const useBlock16 = false

const blockKernel = "generic"

func block16(seed *[4]uint64, buf *[refillWords]uint64) { panic("packet: no 16-lane kernel") }
