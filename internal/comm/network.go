package comm

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"coopmrm/internal/sim"
)

// NetConfig configures the simulated radio network. The zero value is
// a perfect instantaneous channel; every knob degrades it
// independently, and a config with LossProb, ReorderProb, DupProb all
// zero and no Partitions behaves exactly like the pre-chaos network
// (it consumes the same RNG stream, so runs are byte-identical).
type NetConfig struct {
	// Latency is the base one-way delivery delay.
	Latency time.Duration
	// Jitter is the maximum extra random delay added per message.
	Jitter time.Duration
	// LossProb is the probability a message is silently dropped.
	LossProb float64
	// ReorderProb is the probability one scheduled delivery is held
	// back by an extra random delay in (0, ReorderWindow], letting
	// later-sent messages overtake it.
	ReorderProb float64
	// ReorderWindow bounds the extra reorder delay. Defaults to
	// DefaultReorderWindow when ReorderProb > 0 and the window is
	// unset.
	ReorderWindow time.Duration
	// DupProb is the probability one scheduled delivery is duplicated:
	// the copy carries the same Seq and payload but draws its own
	// jitter (and reorder) delay, so the two copies can arrive in any
	// order. The duplicate counts as an extra attempted delivery in
	// Stats, keeping delivered + dropped == sent.
	DupProb float64
	// Partitions are scheduled outage windows applied on the network
	// clock: a message is dropped when its link (or an endpoint's
	// radio) is inside a window either when it is sent or when it
	// would arrive.
	Partitions []Partition
}

// DefaultReorderWindow is the extra-delay bound used when ReorderProb
// is set but ReorderWindow is not.
const DefaultReorderWindow = 500 * time.Millisecond

// Validate reports configuration errors: probabilities outside [0, 1],
// negative delays, or malformed partition windows.
func (c NetConfig) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"LossProb", c.LossProb},
		{"ReorderProb", c.ReorderProb},
		{"DupProb", c.DupProb},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("comm: %s %v out of [0,1]", p.name, p.v)
		}
	}
	if c.Latency < 0 || c.Jitter < 0 || c.ReorderWindow < 0 {
		return fmt.Errorf("comm: negative delay in config")
	}
	for _, w := range c.Partitions {
		if err := w.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Partition is one scheduled communication outage window, active for
// From <= t < Until on the network clock. A and B name the endpoints
// of the partitioned link; PartitionAny ("*") is a wildcard matching
// every endpoint, and an empty B is normalised to the wildcard, so
// {A: "truck1"} takes truck1's radio offline for the window and
// {A: "*", B: "*"} is a global blackout. Matching ignores direction.
type Partition struct {
	A, B  string
	From  time.Duration
	Until time.Duration
}

// PartitionAny is the wildcard endpoint of a Partition.
const PartitionAny = "*"

// Validate reports malformed windows.
func (p Partition) Validate() error {
	if p.A == "" {
		return fmt.Errorf("comm: partition window with empty A endpoint")
	}
	if p.Until <= p.From {
		return fmt.Errorf("comm: partition window [%v, %v) is empty", p.From, p.Until)
	}
	return nil
}

// blocks reports whether the window severs the directed attempt
// from -> to at time t.
func (p Partition) blocks(from, to string, t time.Duration) bool {
	if t < p.From || t >= p.Until {
		return false
	}
	b := p.B
	if b == "" {
		b = PartitionAny
	}
	match := func(pat, id string) bool { return pat == PartitionAny || pat == id }
	return (match(p.A, from) && match(b, to)) || (match(p.A, to) && match(b, from))
}

// DropCause classifies one failed delivery attempt.
type DropCause int

// Drop causes, in the order of the Breakdown fields.
const (
	// DropUnregistered: the recipient has no inbox.
	DropUnregistered DropCause = iota
	// DropNodeDown: the sender's or recipient's radio was offline — at
	// send time, or (recipient only) when the message would arrive.
	DropNodeDown
	// DropLinkDown: the pair was partitioned (SetLinkDown or a
	// scheduled Partition window) at send or arrival time.
	DropLinkDown
	// DropLoss: random channel loss (LossProb).
	DropLoss
	// DropSelf: a unicast addressed to its own sender.
	DropSelf
	numDropCauses
)

// Breakdown is the per-cause drop accounting. The fields sum exactly
// to the dropped total of Stats.
type Breakdown struct {
	Unregistered int64
	NodeDown     int64
	LinkDown     int64
	Loss         int64
	Self         int64
}

// Total returns the sum over all causes (== Stats dropped).
func (b Breakdown) Total() int64 {
	return b.Unregistered + b.NodeDown + b.LinkDown + b.Loss + b.Self
}

// Network is the shared medium. Endpoints register by constituent ID;
// Deliver moves due messages into inboxes each tick, re-checking node
// and link state at arrival time.
//
// The in-transit set is a binary min-heap of parcels. A parcel is one
// Send's message, stored once, plus the recipients whose copies arrive
// at the same instant. The heap is keyed on (deliverAt, Seq), which is
// unique per parcel (one Send, one Seq), so every inbox receives its
// messages in exactly the (deliverAt, Seq) order of a queue of
// per-recipient envelopes; the order among the distinct recipients of
// one parcel is not observable, so they stay in draw order. A
// jitter-free broadcast to the whole fleet thus costs one heap
// operation instead of one per recipient. The per-envelope scan+sort
// delivery survives as the reference model of the differential tests
// (network_ref_test.go). Parcels recycle through a free list and
// inboxes are double-buffered, so a steady-state send/deliver/receive
// tick allocates nothing.
type Network struct {
	cfg      NetConfig
	rng      *sim.RNG
	seq      int64
	now      time.Duration
	nowFn    func() time.Duration
	transit  parcelHeap
	pending  int       // recipient copies across the transit parcels
	free     []*parcel // recycled parcels
	downNode map[string]bool
	downLink map[[2]string]bool

	// eps holds the endpoints in registration order (the broadcast
	// fan-out and RNG draw order) and index maps an ID to its slot.
	// Parcels name recipients by slot, so a broadcast reaches every
	// inbox without a per-recipient ID lookup.
	eps   []endpoint
	index map[string]int32
	// arrBuf is Send scratch: the accepted arrivals of one Send.
	arrBuf []arrival

	sent      int64
	dropped   int64
	droppedBy [numDropCauses]int64
}

// endpoint is one registered radio. Its inbox is double-buffered:
// Deliver appends into cur, Receive hands cur to the caller and swaps
// in the drained prev buffer. The slice returned by Receive therefore
// stays intact until the *second* following Receive of the same
// endpoint — one full tick of safety margin — while steady-state
// delivery reuses the two backing arrays and allocates nothing.
type endpoint struct {
	id        string
	cur, prev []Message
}

// parcel is one heap entry: a message and the endpoints (slots into
// Network.eps) it reaches at instant at. A chaos duplicate landing on
// the same instant as its original lists its recipient twice.
type parcel struct {
	msg Message
	at  time.Duration
	to  []int32
}

// arrival is one accepted delivery of the Send in progress: its
// instant and the recipient's slot.
type arrival struct {
	at time.Duration
	ep int32
}

// parcelHeap is a slice-backed binary min-heap ordered by
// (at, msg.Seq). It is hand-rolled rather than container/heap so push
// and pop stay free of interface boxing — the delivery tick is a hot
// path.
type parcelHeap []*parcel

func parcelLess(a, b *parcel) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.msg.Seq < b.msg.Seq
}

func (h *parcelHeap) push(p *parcel) {
	*h = append(*h, p)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !parcelLess(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// popMin removes and returns the minimum parcel. The heap must be
// non-empty.
func (h *parcelHeap) popMin() *parcel {
	s := *h
	min := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s[last] = nil
	s = s[:last]
	*h = s
	for i := 0; ; {
		smallest := 2*i + 1
		if smallest >= last {
			break
		}
		if right := smallest + 1; right < last && parcelLess(s[right], s[smallest]) {
			smallest = right
		}
		if !parcelLess(s[smallest], s[i]) {
			break
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
	return min
}

// NewNetwork returns a network using the given RNG for jitter, loss,
// reorder, and duplication draws. Panics on an invalid config
// (Validate), mirroring MustRegister: a malformed channel model is a
// programming error, not a runtime condition.
func NewNetwork(cfg NetConfig, rng *sim.RNG) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.ReorderProb > 0 && cfg.ReorderWindow == 0 {
		cfg.ReorderWindow = DefaultReorderWindow
	}
	return &Network{
		cfg:      cfg,
		rng:      rng,
		index:    make(map[string]int32),
		downNode: make(map[string]bool),
		downLink: make(map[[2]string]bool),
	}
}

// Register creates an inbox for the given ID. Duplicate registration
// is an error.
func (n *Network) Register(id string) error {
	if id == "" || id == Broadcast {
		return fmt.Errorf("comm: invalid endpoint ID %q", id)
	}
	if _, dup := n.index[id]; dup {
		return fmt.Errorf("comm: duplicate endpoint %q", id)
	}
	n.index[id] = int32(len(n.eps))
	n.eps = append(n.eps, endpoint{id: id})
	return nil
}

// MustRegister is Register that panics on error.
func (n *Network) MustRegister(id string) {
	if err := n.Register(id); err != nil {
		panic(err)
	}
}

// Endpoints returns registered IDs in registration order.
func (n *Network) Endpoints() []string {
	out := make([]string, len(n.eps))
	for i := range n.eps {
		out[i] = n.eps[i].id
	}
	return out
}

// SetNodeDown takes a node's radio offline (both directions). Messages
// already in transit towards the node are dropped when they arrive —
// a radio that is dead at receipt cannot receive.
func (n *Network) SetNodeDown(id string, down bool) {
	if down {
		n.downNode[id] = true
	} else {
		delete(n.downNode, id)
	}
}

// NodeDown reports whether a node's radio is offline.
func (n *Network) NodeDown(id string) bool { return n.downNode[id] }

// SetLinkDown partitions the pair (both directions). Messages already
// in transit across the link are dropped when they arrive.
func (n *Network) SetLinkDown(a, b string, down bool) {
	if down {
		n.downLink[[2]string{a, b}] = true
		n.downLink[[2]string{b, a}] = true
	} else {
		delete(n.downLink, [2]string{a, b})
		delete(n.downLink, [2]string{b, a})
	}
}

// drop accounts one failed delivery attempt.
func (n *Network) drop(cause DropCause) {
	n.dropped++
	n.droppedBy[cause]++
}

// linkDown reports whether the pair from -> to is severed at time t:
// by SetLinkDown or by a scheduled Partition window. The map lookup is
// skipped while no link is down — an array-keyed lookup on an empty
// map is not free, and this runs once per recipient copy.
func (n *Network) linkDown(from, to string, t time.Duration) bool {
	if len(n.downLink) > 0 && n.downLink[[2]string{from, to}] {
		return true
	}
	for _, w := range n.cfg.Partitions {
		if w.blocks(from, to, t) {
			return true
		}
	}
	return false
}

// Send queues a message for delivery. Broadcast fans out to every
// registered endpoint except the sender. Returns the assigned Seq.
//
// Contract: a unicast with To == From is rejected — the radio is not a
// loopback device, and self-addressed traffic almost always indicates
// a wiring bug — but the attempt is accounted (one sent, one dropped,
// cause Self) so it stays visible in Stats. Sending from an
// unregistered or downed node, or to an unregistered endpoint,
// silently drops (the radio is dead; the sender cannot know) — every
// attempted delivery is accounted in Stats either way.
func (n *Network) Send(m Message) int64 {
	now := n.Now()
	n.seq++
	m.Seq = n.seq
	m.SentAt = now
	arr := n.arrBuf[:0]
	if m.To == Broadcast {
		self, ok := n.index[m.From]
		if !ok {
			self = -1
		}
		for i := range n.eps {
			if int32(i) != self {
				n.sent++
				arr = n.attempt(arr, m, int32(i), now)
			}
		}
	} else {
		n.sent++
		i, registered := n.index[m.To]
		switch {
		case m.To == m.From:
			n.drop(DropSelf)
		case !registered:
			n.drop(DropUnregistered)
		default:
			arr = n.attempt(arr, m, i, now)
		}
	}
	n.arrBuf = arr
	n.enqueue(m, arr)
	return m.Seq
}

// attempt makes the send-time checks and channel draws of one delivery
// to the registered endpoint in slot i and appends its accepted
// arrivals: the copy itself and any chaos duplicate. The draw order —
// loss, delay, duplicate, duplicate delay, recipient by recipient in
// registration order — is part of the determinism contract: a seed's
// runs replay only if every Send consumes the RNG stream the same way.
func (n *Network) attempt(arr []arrival, m Message, i int32, now time.Duration) []arrival {
	to := n.eps[i].id
	switch {
	case n.downNode[m.From] || n.downNode[to]:
		n.drop(DropNodeDown)
	case n.linkDown(m.From, to, now):
		n.drop(DropLinkDown)
	case n.cfg.LossProb > 0 && n.rng.Bool(n.cfg.LossProb):
		n.drop(DropLoss)
	default:
		arr = append(arr, arrival{at: now + n.delay(), ep: i})
		if n.cfg.DupProb > 0 && n.rng.Bool(n.cfg.DupProb) {
			// The duplicate is an extra attempted delivery with its
			// own delay draws, so the copies can arrive in any order.
			n.sent++
			arr = append(arr, arrival{at: now + n.delay(), ep: i})
		}
	}
	return arr
}

// enqueue files one Send's accepted arrivals as parcels, one per
// distinct arrival instant. On a jitter-free channel every copy shares
// one instant, the arrivals are already sorted, and the whole Send
// becomes a single parcel.
func (n *Network) enqueue(m Message, arr []arrival) {
	n.pending += len(arr)
	byInstant := func(a, b arrival) int { return cmp.Compare(a.at, b.at) }
	if !slices.IsSortedFunc(arr, byInstant) {
		slices.SortFunc(arr, byInstant)
	}
	for k := 0; k < len(arr); {
		p := n.parcel(m, arr[k].at)
		for ; k < len(arr) && arr[k].at == p.at; k++ {
			p.to = append(p.to, arr[k].ep)
		}
		n.transit.push(p)
	}
}

// parcel returns an empty parcel for m arriving at at, recycled when
// the free list has one.
func (n *Network) parcel(m Message, at time.Duration) *parcel {
	var p *parcel
	if k := len(n.free); k > 0 {
		p = n.free[k-1]
		n.free[k-1] = nil
		n.free = n.free[:k-1]
	} else {
		p = &parcel{}
	}
	p.msg, p.at = m, at
	return p
}

// recycle parks a delivered (or discarded) parcel on the free list,
// releasing its payload to the GC.
func (n *Network) recycle(p *parcel) {
	p.msg = Message{}
	p.to = p.to[:0]
	n.free = append(n.free, p)
}

// delay draws one delivery delay: base latency, plus jitter, plus —
// with probability ReorderProb — an extra hold-back in
// (0, ReorderWindow]. The draws happen only when the matching knob is
// enabled, so a zero-chaos config consumes exactly the pre-chaos RNG
// stream.
func (n *Network) delay() time.Duration {
	d := n.cfg.Latency
	if n.cfg.Jitter > 0 {
		d += time.Duration(n.rng.Range(0, float64(n.cfg.Jitter)))
	}
	if n.cfg.ReorderProb > 0 && n.rng.Bool(n.cfg.ReorderProb) {
		d += time.Duration(n.rng.Range(0, float64(n.cfg.ReorderWindow)))
	}
	return d
}

// Now returns the network's view of the current time: the attached
// clock when one is wired (via AttachClock or the first Hook tick),
// otherwise the time of the last Deliver. Send stamps SentAt and
// schedules delivery from this caller-visible clock, so a message sent
// after the tick's Deliver (or between engine runs) is not stamped
// with a stale timestamp. The result never runs backwards: it is
// clamped to the last Deliver time so in-transit ordering stays
// consistent.
func (n *Network) Now() time.Duration {
	if n.nowFn != nil {
		if t := n.nowFn(); t > n.now {
			return t
		}
	}
	return n.now
}

// AttachClock wires the caller-visible clock used to stamp sends.
// Network.Hook attaches the engine clock automatically.
func (n *Network) AttachClock(now func() time.Duration) { n.nowFn = now }

// Deliver advances the network clock to now and moves due messages to
// inboxes in deterministic order (deliverAt, then Seq). Every due copy is re-checked against node and link
// state at its scheduled arrival instant: a recipient whose radio died
// after the send, a link partitioned mid-flight, or a scheduled
// Partition window covering the arrival all drop the message (the
// sender's state no longer matters — the datagram already left its
// radio). Drops are accounted per cause in StatsBreakdown.
//
// The in-transit heap is keyed on exactly that order, so delivery is
// a pop loop over the due parcels — O(due parcels · log pending
// parcels) plus one step per recipient copy.
func (n *Network) Deliver(now time.Duration) {
	n.now = now
	for len(n.transit) > 0 && n.transit[0].at <= now {
		p := n.transit.popMin()
		for _, i := range p.to {
			n.deliverOne(p, &n.eps[i])
		}
		n.pending -= len(p.to)
		n.recycle(p)
	}
}

// deliverOne applies the arrival-time re-check to one recipient copy
// of a due parcel and either drops it or appends it to the inbox.
func (n *Network) deliverOne(p *parcel, ep *endpoint) {
	switch {
	case n.downNode[ep.id]:
		n.drop(DropNodeDown)
	case n.linkDown(p.msg.From, ep.id, p.at):
		n.drop(DropLinkDown)
	default:
		ep.cur = append(ep.cur, p.msg)
	}
}

// Receive drains and returns the inbox of id, in delivery order.
//
// The returned slice is owned by the network (inboxes are
// double-buffered): it stays intact until the second following
// Receive of the same endpoint, after which its backing array is
// reused. Callers must consume or copy it within the current tick —
// every entity in this repository ranges over it immediately.
func (n *Network) Receive(id string) []Message {
	i, ok := n.index[id]
	if !ok {
		return nil
	}
	ep := &n.eps[i]
	msgs := ep.cur
	ep.cur, ep.prev = ep.prev[:0], msgs
	if len(msgs) == 0 {
		return nil
	}
	return msgs
}

// Pending returns the number of messages in transit, counting every
// recipient copy.
func (n *Network) Pending() int { return n.pending }

// Stats returns per-recipient delivery accounting: sent counts every
// attempted delivery (a broadcast to k recipients counts k, and a
// chaos duplicate counts one extra), dropped counts the attempts that
// failed — at send time or at arrival time. Invariants:
// 0 <= dropped <= sent, and delivered + dropped + in-transit == sent.
func (n *Network) Stats() (sent, dropped int64) { return n.sent, n.dropped }

// StatsBreakdown returns the per-cause drop accounting. The field sum
// equals the dropped total of Stats, so chaos experiments can
// attribute every lost message to unregistered addressing, dead
// radios, severed links, random loss, or self-addressing.
func (n *Network) StatsBreakdown() Breakdown {
	return Breakdown{
		Unregistered: n.droppedBy[DropUnregistered],
		NodeDown:     n.droppedBy[DropNodeDown],
		LinkDown:     n.droppedBy[DropLinkDown],
		Loss:         n.droppedBy[DropLoss],
		Self:         n.droppedBy[DropSelf],
	}
}

// Hook returns a sim pre-step hook that delivers due messages each
// tick. It also attaches the engine clock so Send stamps messages with
// the live simulated time instead of the last Deliver time.
func (n *Network) Hook() sim.Hook {
	return func(env *sim.Env) {
		if n.nowFn == nil {
			n.AttachClock(env.Clock.Now)
		}
		n.Deliver(env.Clock.Now())
	}
}
