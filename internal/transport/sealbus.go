package transport

import (
	"sync/atomic"

	"repro/internal/auth"
)

// SealedBus authenticates a bus's control plane under one key chain:
// every endpoint it hands out appends the chain's tag to each SendCtrl
// frame, and delivers a reliable frame only once its tag verifies,
// stripped of it. A reliable frame that fails verification is dropped
// and counted (Rejected). Data frames pass through untouched in both
// directions, so the erasure coin and any observer tapping the inner
// bus see the same frames as on a plain bus.
type SealedBus struct {
	Bus
	chain    *auth.KeyChain
	rejected atomic.Int64
	shed     atomic.Int64
}

// NewSealedBus wraps bus so its endpoints seal and open control frames
// under chain. Closing the SealedBus closes bus.
func NewSealedBus(bus Bus, chain *auth.KeyChain) *SealedBus {
	return &SealedBus{Bus: bus, chain: chain}
}

// Rejected returns how many reliable frames failed tag verification.
func (b *SealedBus) Rejected() int64 { return b.rejected.Load() }

// ShedFrames implements Bus: the inner bus's sheds plus frames dropped
// because a sealed endpoint's inbox was full.
func (b *SealedBus) ShedFrames() int64 { return b.Bus.ShedFrames() + b.shed.Load() }

// Endpoint implements Bus. The sealed endpoint's inbox is fed by one
// goroutine that exits when the inner endpoint's Recv channel closes.
func (b *SealedBus) Endpoint(id int) (Endpoint, error) {
	inner, err := b.Bus.Endpoint(id)
	if err != nil {
		return nil, err
	}
	ep := &sealedEndpoint{Endpoint: inner, bus: b, ch: make(chan Env, inboxFrames)}
	go ep.open()
	return ep, nil
}

type sealedEndpoint struct {
	Endpoint
	bus *SealedBus
	ch  chan Env
}

func (e *sealedEndpoint) SendCtrl(frame []byte) error {
	return e.Endpoint.SendCtrl(e.bus.chain.Seal(frame))
}

func (e *sealedEndpoint) Recv() <-chan Env { return e.ch }

// open verifies the inner endpoint's reliable frames into e.ch. Like a
// bus inbox it never blocks: a full inbox sheds the frame.
func (e *sealedEndpoint) open() {
	defer close(e.ch)
	for env := range e.Endpoint.Recv() {
		if env.Reliable {
			frame, err := e.bus.chain.Open(env.Frame)
			if err != nil {
				e.bus.rejected.Add(1)
				continue
			}
			env.Frame = frame
		}
		select {
		case e.ch <- env:
		default:
			e.bus.shed.Add(1)
		}
	}
}
