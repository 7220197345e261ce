package chaos

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/social-sensing/sstd/internal/workqueue"
)

// Conn wraps a workqueue connection and applies the injector's schedule
// to outgoing frames. The wrapper buffers partial writes until the
// frame's length header says it is complete (workqueue.WireFrameSplit),
// numbers it, and lets the fault plan decide its fate: pass, drop,
// corrupt, delay, or reset the connection. Clock skew shifts the frame's
// timestamp fields by decode/shift/re-encode
// (workqueue.ShiftBinaryStamps). Bytes that do not begin with the wire
// magic are no frame at all: they are passed through whole, unnumbered
// and unfaulted, for the peer's codec to reject.
//
// Only the write side is faulted: wrapping both endpoints of a link
// covers both directions, and keeping
// reads transparent means a single frame counter per endpoint — the
// property that makes plans interleaving-proof.
type Conn struct {
	net.Conn
	in     *Injector
	stream string

	wmu  sync.Mutex
	wbuf []byte
	widx uint64
}

// WrapConn wraps one endpoint. The stream name keys the fault plan:
// the same (spec, stream) always sees the same per-frame decisions.
func (in *Injector) WrapConn(stream string, c net.Conn) net.Conn {
	return &Conn{Conn: c, in: in, stream: stream}
}

// Write applies the fault plan frame by frame. It reports the full
// length as written even when frames are dropped — the peer simply
// never sees them, exactly like loss inside the network.
func (c *Conn) Write(p []byte) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = append(c.wbuf, p...)
	for {
		if len(c.wbuf) > 0 && c.wbuf[0] != workqueue.WireMagic {
			_, err := c.Conn.Write(c.wbuf)
			c.wbuf = nil
			if err != nil {
				return 0, err
			}
			return len(p), nil
		}
		end, ok := workqueue.WireFrameSplit(c.wbuf)
		if !ok {
			return len(p), nil
		}
		frame := c.wbuf[:end]
		idx := c.widx
		c.widx++
		if c.in.spec.SkewNs != 0 {
			frame = workqueue.ShiftBinaryStamps(frame, c.in.spec.SkewNs)
			c.in.record(FaultSkew, c.stream, idx, time.Duration(c.in.spec.SkewNs).String(), time.Now())
		}
		fault, _ := c.in.decide(transportFaults, c.stream, idx)
		switch fault {
		case FaultReset:
			c.in.record(FaultReset, c.stream, idx, "", time.Now())
			c.wbuf = nil
			_ = c.Conn.Close()
			return 0, fmt.Errorf("chaos: connection reset (stream %s frame %d)", c.stream, idx)
		case FaultDrop:
			// The frame is silently discarded; the peer never sees it.
			c.in.record(FaultDrop, c.stream, idx, "", time.Now())
		case FaultCorrupt:
			h := c.in.hashKey(FaultCorrupt+"/mode", c.stream, idx)
			corrupted, mode := CorruptFrame(h, frame)
			c.in.record(FaultCorrupt, c.stream, idx, mode, time.Now())
			if _, err := c.Conn.Write(corrupted); err != nil {
				c.wbuf = nil
				return 0, err
			}
		case FaultDelay:
			d := c.in.delayFor(c.stream, idx)
			start := time.Now()
			time.Sleep(d)
			c.in.record(FaultDelay, c.stream, idx, d.String(), start)
			fallthrough
		default:
			if _, err := c.Conn.Write(frame); err != nil {
				c.wbuf = nil
				return 0, err
			}
		}
		c.wbuf = c.wbuf[end:]
	}
}

// CorruptFrame deterministically mangles one complete wire frame; the
// hash selects among four damage shapes: "bitflip" flips a body byte
// (framing intact, content damage — the CRC's job to catch), "truncate"
// cuts the tail so the next frame's bytes are absorbed as body (a torn
// TCP segment), "oversize" rewrites the length header to an absurd value
// (the codec's frame cap must reject it), and "garbage" randomizes the
// body under an intact header. Exported so the fuzz corpus can grow the
// same shapes the chaos layer produces.
func CorruptFrame(h uint64, frame []byte) ([]byte, string) {
	if len(frame) == 0 {
		return frame, "empty"
	}
	_, used := binary.Uvarint(frame[min(2, len(frame)):])
	if used <= 0 || 2+used >= len(frame) {
		// Header-only or unparseable frame: flip a byte anywhere.
		out := append([]byte(nil), frame...)
		out[int((h>>2)%uint64(len(out)))] ^= byte(1 << ((h >> 32) % 8))
		return out, "bitflip"
	}
	hdr := 2 + used
	body := frame[hdr:]
	switch h % 4 {
	case 0: // bitflip: one byte, somewhere in the body
		out := append([]byte(nil), frame...)
		pos := hdr + int((h>>2)%uint64(len(body)))
		out[pos] ^= byte(1 << ((h >> 32) % 8))
		return out, "bitflip"
	case 1: // truncate: cut the tail off
		cut := int((h >> 2) % uint64(len(frame)))
		return append([]byte(nil), frame[:cut]...), "truncate"
	case 2: // oversize: corrupt the length header to an absurd value
		out := make([]byte, 0, len(frame)+8)
		out = append(out, frame[0], frame[1])
		out = binary.AppendUvarint(out, 1<<30)
		return append(out, body...), "oversize"
	default: // garbage: randomize the body under an intact header
		out := append([]byte(nil), frame[:hdr]...)
		x := h
		for range body {
			x = splitmix64(x)
			out = append(out, byte(x))
		}
		return out, "garbage"
	}
}

// Listen wraps a listener so every accepted connection is faulted under
// stream names "accept-0", "accept-1", ... in accept order — the
// master-side hook behind sstd-master's -chaos-spec flag.
func (in *Injector) Listen(l net.Listener) net.Listener {
	return &chaosListener{Listener: l, in: in}
}

type chaosListener struct {
	net.Listener
	in *Injector
	n  atomic.Uint64
}

func (l *chaosListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.in.WrapConn(fmt.Sprintf("accept-%d", l.n.Add(1)-1), c), nil
}
