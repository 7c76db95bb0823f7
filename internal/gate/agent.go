package gate

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/httpapi"
	"repro/internal/obs"
)

// maxControlBody bounds handshake and request frame bodies — both are
// tiny; anything larger is garbage and the connection is cut before the
// 16 MiB frame space can be used as an allocation lever.
const maxControlBody = 1024

// agent is one connection's server side: a read loop that echoes
// heartbeats and fans data requests out to bounded per-request
// goroutines, with all writes serialized on writeMu so concurrent
// responses interleave at frame granularity.
type agent struct {
	g        *Gate
	conn     connLike
	writeMu  sync.Mutex
	lastSeen atomic.Int64 // unix nanos of the last frame read
	kicked   atomic.Bool
	sem      chan struct{}
}

// connLike is the slice of net.Conn the agent needs — real TCP conns,
// net.Pipe halves and the WebSocket adapter all satisfy it.
type connLike interface {
	Read(p []byte) (int, error)
	Write(p []byte) (int, error)
	SetWriteDeadline(t time.Time) error
	Close() error
}

func (a *agent) run() {
	a.lastSeen.Store(time.Now().UnixNano())
	if !a.handshake() {
		return
	}
	a.g.handshakes.Inc()
	a.sem = make(chan struct{}, a.g.cfg.MaxPending)
	var buf []byte
	for {
		typ, body, err := readFrame(a.conn, buf, maxControlBody)
		if err != nil {
			return // peer gone, kicked, or gate closing
		}
		buf = body[:cap(body)]
		a.g.framesIn.Inc()
		a.lastSeen.Store(time.Now().UnixNano())
		switch typ {
		case frameHeartbeat:
			if a.send(newFrame(frameHeartbeat, nil)) != nil {
				return
			}
		case frameData:
			req, err := parseRequest(body)
			if err != nil {
				a.kick("malformed data frame")
				return
			}
			// The semaphore is the per-connection concurrency bound;
			// when it is full the read loop stalls and backpressure
			// propagates through the socket.
			select {
			case a.sem <- struct{}{}:
			case <-a.g.ctx.Done():
				return
			}
			a.g.wg.Add(1)
			go func() {
				defer a.g.wg.Done()
				defer func() { <-a.sem }()
				a.handle(req)
			}()
		case frameKick:
			return // client-side goodbye
		default:
			a.kick("unexpected frame type")
			return
		}
	}
}

// handshake runs the three-step opening: client handshake JSON, server
// ack advertising the heartbeat interval, client handshake-ack.
//
// Every frame read refreshes lastSeen. The client only learns the
// heartbeat interval from the ack, so it cannot have been heartbeating
// during the handshake — without the refresh, a handshake that
// legitimately took close to the sweep deadline would leave the freshly
// established connection kickable before its first heartbeat was even
// due.
func (a *agent) handshake() bool {
	typ, body, err := readFrame(a.conn, nil, maxControlBody)
	if err != nil || typ != frameHandshake {
		return false
	}
	a.lastSeen.Store(time.Now().UnixNano())
	var hs handshake
	if json.Unmarshal(body, &hs) != nil || hs.Version != protocolVersion {
		a.kick("unsupported protocol version")
		return false
	}
	ack, _ := json.Marshal(handshakeAck{
		Version:     protocolVersion,
		HeartbeatMS: a.g.cfg.HeartbeatEvery.Milliseconds(),
		MaxFrame:    MaxFrameBody,
	})
	if a.send(newFrame(frameHandshake, ack)) != nil {
		return false
	}
	typ, _, err = readFrame(a.conn, nil, maxControlBody)
	if err != nil || typ != frameHandshakeAck {
		return false
	}
	a.lastSeen.Store(time.Now().UnixNano())
	return true
}

// handle serves one data request on its own goroutine.
func (a *agent) handle(req request) {
	obsOn := a.g.obsReg.Enabled()
	var t0 time.Time
	if obsOn {
		t0 = time.Now()
	}
	ctx := a.g.ctx
	span := req.Span
	if !obsOn {
		span = ""
	}
	if span != "" {
		// The span rides the frame the way X-Thinair-Span rides HTTP:
		// the backend's worker RPC picks it out of the context, so
		// /debug/trace?span= shows gate → worker → engine as one chain.
		ctx = obs.WithSpan(ctx, span)
	}
	switch req.Op {
	case opDraw, opBulk:
		n := uint64(req.N)
		if req.Op == opBulk {
			n *= uint64(req.Count)
		}
		if n == 0 || n > httpapi.MaxDrawBytes {
			a.replyError(req.ReqID, client.ErrBadRequest)
			if obsOn {
				a.g.drawErr.ObserveSince(t0)
			}
			return
		}
		key, err := a.g.cfg.Backend.Draw(ctx, req.Session, int(n))
		if err != nil {
			a.replyError(req.ReqID, err)
			if obsOn {
				a.g.drawErr.ObserveSince(t0)
			}
			return
		}
		if a.reply(req.ReqID, kindFinal, key) != nil {
			return
		}
		if obsOn {
			now := time.Now()
			a.g.drawOK.Observe(now.Sub(t0).Seconds())
			if span != "" {
				a.g.spans.RecordKVAt(now, span, "gate", "draw",
					"session", strconv.FormatUint(req.Session, 10),
					"bytes", strconv.FormatUint(n, 10))
			}
		}
	case opStream:
		if req.Len == 0 || req.Len > httpapi.MaxStreamBytes {
			a.replyError(req.ReqID, client.ErrBadRequest)
			if obsOn {
				a.g.strErr.ObserveSince(t0)
			}
			return
		}
		cw := &chunkWriter{a: a, reqID: req.ReqID}
		if _, err := a.g.cfg.Backend.StreamTo(ctx, req.Session, req.Off, req.Len, cw); err != nil {
			// Even after partials went out the error frame is correct:
			// the client discards the accumulated prefix — truncation is
			// loud on this surface too.
			a.replyError(req.ReqID, err)
			if obsOn {
				a.g.strErr.ObserveSince(t0)
			}
			return
		}
		if a.reply(req.ReqID, kindFinal, nil) != nil {
			return
		}
		if obsOn {
			now := time.Now()
			a.g.strOK.Observe(now.Sub(t0).Seconds())
			if span != "" {
				a.g.spans.RecordKVAt(now, span, "gate", "stream",
					"session", strconv.FormatUint(req.Session, 10),
					"offset", strconv.FormatInt(req.Off, 10),
					"len", strconv.FormatInt(req.Len, 10))
			}
		}
	default:
		a.replyError(req.ReqID, client.ErrBadRequest)
	}
}

// send emits one whole frame, headers written, under the write lock.
func (a *agent) send(frame []byte) error {
	if len(frame)-frameHeaderLen > MaxFrameBody {
		return errFrameTooLarge
	}
	a.writeMu.Lock()
	_, err := a.conn.Write(frame)
	a.writeMu.Unlock()
	if err == nil {
		a.g.framesOut.Inc()
	}
	return err
}

// replyFrame returns an exact-size data response frame, headers
// written, with an n-byte payload slot at frame[dataHeaderLen:]. Draw
// and control replies are sized to fit: they never hold a chunk-sized
// stream frame.
func replyFrame(reqID uint32, kind byte, n int) []byte {
	frame := make([]byte, dataHeaderLen+n)
	putResponseHeader(frame, reqID, kind)
	return frame
}

// reply emits one data response frame.
func (a *agent) reply(reqID uint32, kind byte, payload []byte) error {
	frame := replyFrame(reqID, kind, len(payload))
	copy(frame[dataHeaderLen:], payload)
	return a.send(frame)
}

// replyError emits an error response carrying the shared envelope code
// in one-byte form.
func (a *agent) replyError(reqID uint32, err error) {
	msg := err.Error()
	code, _ := httpapi.CodeOf(err)
	frame := replyFrame(reqID, kindError, 1+len(msg))
	frame[dataHeaderLen] = slugToCode[code]
	copy(frame[dataHeaderLen+1:], msg)
	_ = a.send(frame)
}

// kick closes the connection server-side, best-effort sending the kick
// frame first. The write deadline also unblocks any in-flight write
// holding writeMu, so a stalled peer can never wedge the sweeper.
func (a *agent) kick(reason string) {
	if !a.kicked.CompareAndSwap(false, true) {
		return
	}
	a.g.kicks.Inc()
	_ = a.conn.SetWriteDeadline(time.Now().Add(time.Second))
	a.writeMu.Lock()
	_ = writeFrame(a.conn, frameKick, []byte(reason))
	a.writeMu.Unlock()
	a.conn.Close()
}

// streamFrames recycles partial-response frames: the header slot plus
// one StreamChunk of payload. One pool serves the whole gate, and a
// stream holds a frame only while it relays, so an idle connection
// keeps no chunk buffer (a gate holds 100k+ connections).
var streamFrames = sync.Pool{New: func() any {
	b := make([]byte, dataHeaderLen+httpapi.StreamChunk)
	return &b
}}

// putStreamFrame clears a frame — the key material it carried — and
// returns it to streamFrames. All of it is cleared: the source a frame
// was read from may use all of the buffer Read is given as scratch.
func putStreamFrame(frame *[]byte) {
	clear(*frame)
	streamFrames.Put(frame)
}

// chunkWriter turns a backend's stream into partial response frames of
// at most StreamChunk bytes each, built in pooled frames: ReadFrom
// (what io.Copy picks, so a worker's body is read straight into the
// frame) and Write both copy each byte once, into the frame that goes
// to the socket.
type chunkWriter struct {
	a     *agent
	reqID uint32
}

// ReadFrom relays src until a clean io.EOF, filling each frame to a
// full chunk before it goes out. Any other error from src is returned
// unchanged after the bytes read with it are relayed, so the backend
// sees exactly what its source reported.
func (cw *chunkWriter) ReadFrom(src io.Reader) (int64, error) {
	fp := streamFrames.Get().(*[]byte)
	defer putStreamFrame(fp)
	chunk := (*fp)[dataHeaderLen:]
	var total int64
	for {
		m := 0
		var rerr error
		for m < len(chunk) && rerr == nil {
			var k int
			k, rerr = src.Read(chunk[m:])
			m += k
		}
		if m > 0 {
			if err := cw.emit((*fp)[:dataHeaderLen+m]); err != nil {
				return total, err
			}
			total += int64(m)
		}
		if rerr == io.EOF {
			return total, nil
		}
		if rerr != nil {
			return total, rerr
		}
	}
}

// Write relays p, for backends that push their bytes.
func (cw *chunkWriter) Write(p []byte) (int, error) {
	n, err := cw.ReadFrom(bytes.NewReader(p))
	return int(n), err
}

// emit sends one filled frame as a partial response.
func (cw *chunkWriter) emit(frame []byte) error {
	putResponseHeader(frame, cw.reqID, kindPartial)
	return cw.a.send(frame)
}
