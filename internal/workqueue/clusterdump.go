package workqueue

import (
	"time"

	"github.com/social-sensing/sstd/internal/obs"
)

// gatherTimeout bounds a gather round's wait for worker replies. A worker
// mid-task answers after its result; one past the timeout is absent from
// the trace.
var gatherTimeout = 2 * time.Second

// dumpCollector routes one gather round's worker replies from the
// per-connection reader goroutines to the gathering goroutine. Each reply
// is filed under the connection it arrived on — the only host identity
// the master trusts, since it picks the trace's lane and the clock-skew
// correction — with its events already on the master clock: the
// connection reader shifted them.
type dumpCollector struct {
	seq     int64
	replies chan obs.HostEvents
}

// gather is the master's trip hook, the gather step of its recorder's
// dump: it broadcasts FreezeRings with the recorder's window to every
// attached worker, waits up to gatherTimeout for the replies, and returns
// each one filed under its connection.
func (m *Master) gather(trigger, detail string, window time.Duration) []obs.HostEvents {
	seq := m.dumpSeq.Add(1)
	targets := m.cluster.codecs()
	col := &dumpCollector{seq: seq, replies: make(chan obs.HostEvents, len(targets))}
	m.dumpPending.Store(col)
	defer m.dumpPending.Store(nil)

	// Codec sends are mutex-serialized, so writing from this goroutine
	// cannot interleave with the handler's task sends.
	freeze := &FreezeRequest{Seq: seq, Trigger: trigger, Detail: detail, WindowNs: int64(window)}
	expect := 0
	for _, c := range targets {
		if c.send(message{Type: msgFreeze, Freeze: freeze}) == nil {
			expect++
		}
	}
	// A connection's second reply to the round is dropped: counted, it
	// would end the wait before a slower worker's reply.
	hosts := make([]obs.HostEvents, 0, expect)
	seen := make(map[string]bool, expect)
	timeout := time.NewTimer(gatherTimeout)
	defer timeout.Stop()
	for len(hosts) < expect {
		select {
		case h := <-col.replies:
			if !seen[h.Host] {
				seen[h.Host] = true
				hosts = append(hosts, h)
			}
		case <-timeout.C:
			expect = 0
		}
	}
	return hosts
}

// handleFlightDump routes a dump arriving on workerID's connection. Seq 0
// is a worker-initiated trip: it trips the master's recorder, whose gather
// step then freezes every worker, the tripping one included. A reply
// whose Seq matches the pending round feeds it; any other reply outlived
// its round and is dropped.
func (m *Master) handleFlightDump(workerID string, d *FlightDump) {
	if d == nil || m.rec == nil {
		return
	}
	if d.Seq == 0 {
		m.rec.Trip(d.Trigger, "worker "+workerID+": "+d.Detail)
		return
	}
	if col := m.dumpPending.Load(); col != nil && col.seq == d.Seq {
		select {
		case col.replies <- obs.HostEvents{Host: workerID, Events: d.Events}:
		default:
		}
		return
	}
	m.logger.Debug("late flight dump dropped", obs.WorkerID(workerID), obs.F("seq", d.Seq))
}
