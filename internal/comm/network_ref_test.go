package comm

import (
	"cmp"
	"slices"
	"strings"
	"time"

	"coopmrm/internal/sim"
)

// refNetwork is the reference model of Network delivery: one envelope
// per recipient copy, and a Deliver that scans the whole in-transit
// set, sorts the due envelopes by (deliverAt, Seq, recipient) and
// delivers them in that order. It is the straightforward per-envelope
// design the parcel heap replaces, kept as the oracle of the
// differential tests and the baseline arm of the delivery benchmarks.
// It consumes the RNG exactly as Network does (loss, delay, duplicate,
// duplicate delay per recipient, in registration order), so the two
// must agree on every observable given the same seed and script.
type refNetwork struct {
	cfg      NetConfig
	rng      *sim.RNG
	seq      int64
	now      time.Duration
	transit  []envelope
	inbox    map[string][]Message
	order    []string
	downNode map[string]bool
	downLink map[[2]string]bool

	sent      int64
	droppedBy [numDropCauses]int64
}

type envelope struct {
	msg       Message
	to        string
	deliverAt time.Duration
}

func newRefNetwork(cfg NetConfig, rng *sim.RNG) *refNetwork {
	if cfg.ReorderProb > 0 && cfg.ReorderWindow == 0 {
		cfg.ReorderWindow = DefaultReorderWindow
	}
	return &refNetwork{
		cfg:      cfg,
		rng:      rng,
		inbox:    make(map[string][]Message),
		downNode: make(map[string]bool),
		downLink: make(map[[2]string]bool),
	}
}

func (n *refNetwork) MustRegister(id string) {
	if _, dup := n.inbox[id]; dup || id == "" || id == Broadcast {
		panic("refNetwork: bad endpoint " + id)
	}
	n.inbox[id] = nil
	n.order = append(n.order, id)
}

func (n *refNetwork) SetNodeDown(id string, down bool) {
	if down {
		n.downNode[id] = true
	} else {
		delete(n.downNode, id)
	}
}

func (n *refNetwork) SetLinkDown(a, b string, down bool) {
	if down {
		n.downLink[[2]string{a, b}] = true
		n.downLink[[2]string{b, a}] = true
	} else {
		delete(n.downLink, [2]string{a, b})
		delete(n.downLink, [2]string{b, a})
	}
}

func (n *refNetwork) partitioned(from, to string, t time.Duration) bool {
	for _, w := range n.cfg.Partitions {
		if w.blocks(from, to, t) {
			return true
		}
	}
	return false
}

func (n *refNetwork) delay() time.Duration {
	d := n.cfg.Latency
	if n.cfg.Jitter > 0 {
		d += time.Duration(n.rng.Range(0, float64(n.cfg.Jitter)))
	}
	if n.cfg.ReorderProb > 0 && n.rng.Bool(n.cfg.ReorderProb) {
		d += time.Duration(n.rng.Range(0, float64(n.cfg.ReorderWindow)))
	}
	return d
}

func (n *refNetwork) Send(m Message) int64 {
	n.seq++
	m.Seq = n.seq
	m.SentAt = n.now
	recipients := []string{m.To}
	if m.To == Broadcast {
		recipients = nil
		for _, id := range n.order {
			if id != m.From {
				recipients = append(recipients, id)
			}
		}
	}
	n.sent += int64(len(recipients))
	for _, to := range recipients {
		_, registered := n.inbox[to]
		switch {
		case to == m.From:
			n.droppedBy[DropSelf]++
		case !registered:
			n.droppedBy[DropUnregistered]++
		case n.downNode[m.From] || n.downNode[to]:
			n.droppedBy[DropNodeDown]++
		case n.downLink[[2]string{m.From, to}] || n.partitioned(m.From, to, n.now):
			n.droppedBy[DropLinkDown]++
		case n.cfg.LossProb > 0 && n.rng.Bool(n.cfg.LossProb):
			n.droppedBy[DropLoss]++
		default:
			n.transit = append(n.transit, envelope{msg: m, to: to, deliverAt: n.now + n.delay()})
			if n.cfg.DupProb > 0 && n.rng.Bool(n.cfg.DupProb) {
				n.sent++
				n.transit = append(n.transit, envelope{msg: m, to: to, deliverAt: n.now + n.delay()})
			}
		}
	}
	return m.Seq
}

func (n *refNetwork) Deliver(now time.Duration) {
	n.now = now
	var due, later []envelope
	for _, e := range n.transit {
		if e.deliverAt <= now {
			due = append(due, e)
		} else {
			later = append(later, e)
		}
	}
	n.transit = later
	slices.SortStableFunc(due, func(a, b envelope) int {
		if c := cmp.Compare(a.deliverAt, b.deliverAt); c != 0 {
			return c
		}
		if c := cmp.Compare(a.msg.Seq, b.msg.Seq); c != 0 {
			return c
		}
		return strings.Compare(a.to, b.to)
	})
	for _, e := range due {
		switch {
		case n.downNode[e.to]:
			n.droppedBy[DropNodeDown]++
		case n.downLink[[2]string{e.msg.From, e.to}] || n.partitioned(e.msg.From, e.to, e.deliverAt):
			n.droppedBy[DropLinkDown]++
		default:
			n.inbox[e.to] = append(n.inbox[e.to], e.msg)
		}
	}
}

func (n *refNetwork) Receive(id string) []Message {
	msgs := n.inbox[id]
	if _, ok := n.inbox[id]; ok {
		n.inbox[id] = nil
	}
	return msgs
}

func (n *refNetwork) Pending() int { return len(n.transit) }

func (n *refNetwork) Stats() (sent, dropped int64) {
	return n.sent, n.StatsBreakdown().Total()
}

func (n *refNetwork) StatsBreakdown() Breakdown {
	return Breakdown{
		Unregistered: n.droppedBy[DropUnregistered],
		NodeDown:     n.droppedBy[DropNodeDown],
		LinkDown:     n.droppedBy[DropLinkDown],
		Loss:         n.droppedBy[DropLoss],
		Self:         n.droppedBy[DropSelf],
	}
}
