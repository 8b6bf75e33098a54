package icemesh

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/icescope"
)

// NodeConfig sizes one worker node.
type NodeConfig struct {
	Coordinator  string        // coordinator address (host:port)
	Name         string        // advertised node name; "" lets the coordinator pick
	Workers      int           // local fleet pool width, advertised as capacity; <=0 means 1
	DialRetry    Backoff       // re-dial policy (zero value = 100ms doubling to 5s)
	DialAttempts int           // dial attempts before Run gives up; <=0 means 30
	BatchCells   int           // CellDone entries coalesced per CellBatch frame; <=0 means 32
	BatchFlush   time.Duration // max delay before a partial batch flushes; <=0 means 2ms
	Logf         func(format string, args ...any)

	// Obs, when non-nil, receives the node's serving metrics. The daemon
	// registers the handles once (NewNodeObs) and reuses them across
	// re-dials, so counters survive connection loss.
	Obs *NodeObs

	// Trace, when non-nil, records the node's session: dial/handshake,
	// one span per executed shard, and per-cell fleet spans
	// (cmd/icenode -tracefile). Purely observational — assignment
	// execution and CellDone bytes are identical with tracing on or off.
	Trace *icescope.Trace
}

// NodeObs bundles the worker node's icescope handles: how many shards
// and cells it executed, its heartbeat cadence, and where its time goes
// (shard execution, per-cell latency, pool queue wait).
type NodeObs struct {
	ShardsDone   *icescope.Counter
	ShardsFailed *icescope.Counter
	CellsDone    *icescope.Counter
	Heartbeats   *icescope.Counter
	ShardSeconds *icescope.Histogram
	Fleet        *fleet.Obs
}

// NewNodeObs registers the node metric family on reg (icenode_*) and
// returns the handles for NodeConfig.Obs. Call once per process.
func NewNodeObs(reg *icescope.Registry) *NodeObs {
	return &NodeObs{
		ShardsDone:   reg.Counter("icenode_shards_done_total", "Shard assignments executed to completion."),
		ShardsFailed: reg.Counter("icenode_shards_failed_total", "Shard assignments that failed at build or range validation."),
		CellsDone:    reg.Counter("icenode_cells_done_total", "Cells executed and streamed back."),
		Heartbeats:   reg.Counter("icenode_heartbeats_total", "Heartbeats sent to the coordinator."),
		ShardSeconds: reg.Histogram("icenode_shard_seconds", "Wall time executing one shard assignment.", nil),
		Fleet: &fleet.Obs{
			CellSeconds: reg.Histogram("icenode_cell_seconds",
				"Per-cell execution latency on this node's pool.", nil),
			QueueWaitSeconds: reg.Histogram("icenode_cell_queue_wait_seconds",
				"Per-cell wait between dispatch and worker pickup on this node.", nil),
		},
	}
}

func (c NodeConfig) withDefaults() NodeConfig {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.DialAttempts <= 0 {
		c.DialAttempts = 30
	}
	if c.BatchCells <= 0 {
		c.BatchCells = 32
	}
	if c.BatchFlush <= 0 {
		c.BatchFlush = 2 * time.Millisecond
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Node is one worker: it registers with the coordinator, heartbeats,
// executes assigned cell ranges, and streams results back in CellBatch
// frames. Assignments within the coordinator-granted credit
// window execute concurrently, all sharing one persistent fleet session
// per job — the pool bounds actual parallelism at Workers, and the
// session keeps the spec and its workers alive across shards, so shard
// size 1 costs one cell dispatch, not a spec build or a pool start.
type Node struct {
	cfg NodeConfig

	conn net.Conn
	wmu  sync.Mutex
	wbuf []byte

	mu        sync.Mutex
	name      string  // coordinator-assigned name, set after Welcome
	dialMS    float64 // dial+handshake wall time, for forwarded traces
	inflight  int     // assignments accepted and not yet finished
	cellsDone uint64
	draining  bool

	// smu guards the per-job session cache; batch coalesces outgoing
	// cell deliveries. Both are rebuilt per Run (per connection).
	smu      sync.Mutex
	sessions map[string]*nodeSession
	batch    *cellBatcher

	// sess parents this connection's shard spans; set in Run before
	// assignments arrive, zero when the node is untraced.
	sess icescope.Span
}

// nodeSession is one cached (built spec, worker pool) pair, keyed by the
// assignment's job parameters: every shard of the same job hits the same
// session, so the ~1%-of-shard build cost is paid once per (job, node)
// instead of once per shard. Traced jobs additionally carry the span
// forwarder that ships their completed spans to the coordinator.
type nodeSession struct {
	sess *fleet.Session
	fwd  *spanForwarder // nil for untraced jobs
	refs int            // assignments currently executing on it
}

// NewNode returns an unconnected node; Run connects and serves.
func NewNode(cfg NodeConfig) *Node {
	return &Node{cfg: cfg.withDefaults(), sessions: map[string]*nodeSession{}}
}

// Name reports the coordinator-assigned node name ("" before Welcome).
func (n *Node) Name() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.name
}

func (n *Node) send(m any) error {
	n.wmu.Lock()
	defer n.wmu.Unlock()
	if n.conn == nil {
		return errors.New("icemesh: node not connected")
	}
	_ = n.conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	buf, err := WriteMessage(n.conn, n.wbuf, m)
	n.wbuf = buf
	return err
}

// cellBatcher coalesces per-cell deliveries into CellBatch frames,
// bounded by count (BatchCells) and latency (BatchFlush). At shard size
// 1 every cell would otherwise be its own framed write plus its own
// coordinator lock acquisition; batching amortizes both without
// changing content — the coordinator merges batch entries through the
// exact same dedup path as singletons.
type cellBatcher struct {
	n    *Node
	max  int
	wait time.Duration

	mu    sync.Mutex // held across the wire write: batches leave in take order
	buf   []CellDone
	timer *time.Timer
}

// add queues one cell, flushing when the batch is full; a partial batch
// is flushed by the timer within wait.
func (b *cellBatcher) add(cd CellDone) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf = append(b.buf, cd)
	if len(b.buf) >= b.max {
		b.sendLocked()
		return
	}
	if b.timer == nil {
		b.timer = time.AfterFunc(b.wait, func() { _ = b.flushThen(nil) })
	}
}

// flushThen drains the pending batch and then — atomically with the
// drain — sends m. That atomicity is the ordering seam ShardDone needs:
// frame order is write order on TCP, so the coordinator has merged every
// cell of a shard before the ShardDone that retires it arrives.
func (b *cellBatcher) flushThen(m any) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.sendLocked()
	if m != nil {
		return b.n.send(m)
	}
	return nil
}

// sendLocked writes the pending batch, if any. Callers hold b.mu.
func (b *cellBatcher) sendLocked() {
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	if len(b.buf) == 0 {
		return
	}
	batch := b.buf
	b.buf = nil
	// Send errors are deliberately dropped: a dead connection surfaces
	// in Run's read loop, and the coordinator re-queues whatever this
	// node never delivered.
	_ = b.n.send(&CellBatch{Cells: batch})
}

// spanBatchMax bounds how many completed spans coalesce into one
// SpanBatch frame; the flush timer (BatchFlush, shared with the cell
// batcher) bounds how stale a partial batch may go.
const spanBatchMax = 64

// spanForwarder batches a traced job's completed spans into SpanBatch
// frames. It is fed synchronously by the forwarding trace's event plane
// (ForwardEvents), so by the time a cell's CellDone is batched on the
// same goroutine, the cell's span is already buffered here — and
// detachFlush before ShardDone means it is already on the wire before
// the shard retires. Spans carry node trace-clock offsets; NowNS lets
// the coordinator re-base them onto the job trace's epoch.
type spanForwarder struct {
	n    *Node
	tr   *icescope.Trace // the node-side forwarding trace (NowNS source)
	root icescope.Span   // parent of this job's shard spans on the node
	max  int
	wait time.Duration

	mu     sync.Mutex // held across the wire write, like cellBatcher
	buf    []SpanRec
	timer  *time.Timer
	shards map[uint64]struct{} // this job's assignments still executing here
}

// onEvent converts completed spans (ends and instants; starts carry no
// duration) into wire records. Runs on whatever goroutine ended the
// span.
func (f *spanForwarder) onEvent(ev icescope.SpanEvent) {
	if ev.Kind == icescope.EventStart {
		return
	}
	rec := SpanRec{Name: ev.Name, StartNS: uint64(ev.Start), EndNS: uint64(ev.End)}
	for _, a := range ev.Attrs {
		wa := SpanAttr{Key: a.Key, IsStr: a.IsStr()}
		if wa.IsStr {
			wa.Str = a.Str
		} else {
			wa.Num = a.Num
		}
		rec.Attrs = append(rec.Attrs, wa)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.buf = append(f.buf, rec)
	if len(f.buf) >= f.max {
		f.flushLocked()
		return
	}
	if f.timer == nil {
		f.timer = time.AfterFunc(f.wait, func() {
			f.mu.Lock()
			defer f.mu.Unlock()
			f.flushLocked()
		})
	}
}

// addShard registers an assignment as a live locator for this job.
func (f *spanForwarder) addShard(shard uint64) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.shards[shard] = struct{}{}
	f.mu.Unlock()
}

// detachFlush writes everything pending stamped with shard, then
// retires shard from the locator set — atomically, so a span frame
// never carries a locator the coordinator has already seen retired by
// the ShardDone that the caller sends right after this returns.
func (f *spanForwarder) detachFlush(shard uint64) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sendLocked(shard)
	delete(f.shards, shard)
}

// drop retires shard without flushing — the cancelled path, where
// sending could race the coordinator's eviction and double-record spans
// for cells that will re-run elsewhere.
func (f *spanForwarder) drop(shard uint64) {
	if f == nil {
		return
	}
	f.mu.Lock()
	delete(f.shards, shard)
	f.mu.Unlock()
}

// flushLocked picks any still-active assignment as the frame's job
// locator; with none active the spans stay buffered for the next
// detachFlush (or are discarded with the session — the job is done
// here). Callers hold f.mu.
func (f *spanForwarder) flushLocked() {
	for shard := range f.shards {
		f.sendLocked(shard)
		return
	}
	if f.timer != nil {
		f.timer.Stop()
		f.timer = nil
	}
}

// sendLocked writes the pending spans as one frame. Callers hold f.mu.
func (f *spanForwarder) sendLocked(shard uint64) {
	if f.timer != nil {
		f.timer.Stop()
		f.timer = nil
	}
	if len(f.buf) == 0 {
		return
	}
	spans := f.buf
	f.buf = nil
	// Send errors are dropped for the same reason as cell batches: a dead
	// connection surfaces in Run's read loop, and spans are observability,
	// not results — nothing re-queues them.
	_ = f.n.send(&SpanBatch{Shard: shard, NowNS: uint64(f.tr.Now()), Spans: spans})
}

// assignKey identifies the job a shard belongs to by its rebuild
// parameters — every shard of one job carries identical ones, so the key
// needs no job id on the wire. Traced and untraced jobs with identical
// parameters key separately: a traced session's spans route to its
// forwarding trace, an untraced one's must not.
func assignKey(a *Assign) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s|%d|%d|%d", a.Scenario, a.Seed, a.Cells, int64(a.Duration))
	if a.Trace {
		sb.WriteString("|traced")
	}
	knobs := make([]string, 0, len(a.Knobs))
	for k := range a.Knobs {
		knobs = append(knobs, k)
	}
	sort.Strings(knobs)
	for _, k := range knobs {
		fmt.Fprintf(&sb, "|%s=%g", k, a.Knobs[k])
	}
	return sb.String()
}

// sessionFor returns the cached node session for the assignment's job,
// building spec and pool on first use, plus a release for when the
// shard finishes. Creating a session for a new job evicts idle sessions
// of old ones, so the cache holds one session per concurrently-running
// job, not one per job ever seen. Traced jobs get a forwarding trace:
// the session's fleet spans parent under its root instead of the local
// session span (the local -tracefile trace keeps dial/session and
// untraced jobs' shards; a job's cell spans live in the job's own trace
// at the coordinator — recording them twice would double memory for
// nothing), and its completed spans stream back as SpanBatch frames.
func (n *Node) sessionFor(a *Assign) (*nodeSession, func(), error) {
	key := assignKey(a)
	n.smu.Lock()
	defer n.smu.Unlock()
	ns := n.sessions[key]
	if ns == nil {
		spec, err := fleet.Build(a.Scenario, fleet.Params{
			Seed:     a.Seed,
			Cells:    a.Cells,
			Duration: a.Duration,
			Knobs:    a.Knobs,
		})
		if err != nil {
			return nil, nil, err
		}
		var fwd *spanForwarder
		span := n.sess
		if a.Trace {
			name := n.Name()
			ftr := icescope.NewTrace("node " + name)
			fwd = &spanForwarder{n: n, tr: ftr, max: spanBatchMax, wait: n.cfg.BatchFlush, shards: map[uint64]struct{}{}}
			ftr.ForwardEvents(fwd.onEvent)
			fwd.root = ftr.Start(icescope.Span{}, "node "+name)
			span = fwd.root
			// Replay connection context the job missed: how expensive this
			// node's dial was, and that a session root anchors its spans.
			n.mu.Lock()
			dialMS := n.dialMS
			n.mu.Unlock()
			ftr.Instant(fwd.root, "dial coordinator", icescope.NumAttr("ms", dialMS))
			ftr.Instant(fwd.root, "session "+name, icescope.StrAttr("node", name))
		}
		runner := fleet.Runner{Workers: n.cfg.Workers, Span: span}
		if n.cfg.Obs != nil {
			runner.Obs = n.cfg.Obs.Fleet
		}
		sess, err := runner.NewSession(spec)
		if err != nil {
			return nil, nil, err
		}
		for k, old := range n.sessions {
			if old.refs == 0 && old.sess.Idle() {
				old.sess.Close()
				delete(n.sessions, k)
			}
		}
		ns = &nodeSession{sess: sess, fwd: fwd}
		n.sessions[key] = ns
	}
	// Register the assignment as a job locator before any of its spans can
	// flush; frames always carry a shard the coordinator still holds.
	ns.fwd.addShard(a.Shard)
	ns.refs++
	return ns, func() {
		n.smu.Lock()
		ns.refs--
		n.smu.Unlock()
	}, nil
}

// closeSessions tears down the session cache at connection end; every
// execute goroutine has returned by then, so all pools are idle.
func (n *Node) closeSessions() {
	n.smu.Lock()
	all := n.sessions
	n.sessions = map[string]*nodeSession{}
	n.smu.Unlock()
	for _, ns := range all {
		ns.sess.Close()
	}
}

// Run dials the coordinator (with the shared backoff+jitter retry),
// registers, and serves assignments until the connection drops or ctx
// is cancelled. A cleanly drained shutdown (Drain, then cancel) returns
// nil; anything else returns the terminating error.
func (n *Node) Run(ctx context.Context) error {
	dialT0 := time.Now()
	dialSp := n.cfg.Trace.Start(icescope.Span{}, "dial coordinator")
	var conn net.Conn
	dial := func() error {
		c, err := (&net.Dialer{Timeout: 3 * time.Second}).DialContext(ctx, "tcp", n.cfg.Coordinator)
		if err == nil {
			conn = c
		}
		return err
	}
	if err := Retry(ctx, n.cfg.DialAttempts, n.cfg.DialRetry, dial); err != nil {
		return fmt.Errorf("icemesh: dialing coordinator %s: %w", n.cfg.Coordinator, err)
	}
	defer conn.Close()
	n.wmu.Lock()
	n.conn = conn
	n.wmu.Unlock()

	if err := n.send(&Hello{Node: n.cfg.Name, Capacity: n.cfg.Workers}); err != nil {
		return err
	}
	br := bufio.NewReader(conn)
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	first, err := ReadMessage(br)
	if err != nil {
		return fmt.Errorf("icemesh: awaiting welcome: %w", err)
	}
	welcome, ok := first.(*Welcome)
	if !ok {
		return fmt.Errorf("icemesh: expected welcome, got %T", first)
	}
	n.mu.Lock()
	n.name = welcome.Node
	n.dialMS = float64(time.Since(dialT0)) / float64(time.Millisecond)
	n.mu.Unlock()
	dialSp.End(icescope.StrAttr("node", welcome.Node))
	n.sess = n.cfg.Trace.Start(icescope.Span{}, "session "+welcome.Node)
	defer func() { n.sess.End(); n.sess = icescope.Span{} }()
	beat := time.Duration(welcome.HeartbeatMS) * time.Millisecond
	if beat <= 0 {
		beat = time.Second
	}
	n.cfg.Logf("icemesh: registered as %s (capacity %d, heartbeat %v)", welcome.Node, n.cfg.Workers, beat)

	// connCtx scopes the helper goroutines to THIS connection: it ends
	// when ctx does or when the read loop breaks, so a dropped connection
	// stops the heartbeats and flushes the queue instead of wedging
	// workers.Wait() — Run must return for the daemon to re-dial.
	connCtx, connCancel := context.WithCancel(ctx)
	defer connCancel()
	// ctx cancellation unblocks the reader by closing the socket.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	n.batch = &cellBatcher{n: n, max: n.cfg.BatchCells, wait: n.cfg.BatchFlush}
	defer n.closeSessions()
	var workers sync.WaitGroup
	workers.Add(1)
	go func() { // heartbeats, independent of execution
		defer workers.Done()
		t := time.NewTicker(beat)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				n.mu.Lock()
				hb := &Heartbeat{Inflight: n.inflight, CellsDone: n.cellsDone}
				n.mu.Unlock()
				_ = n.send(hb)
				if n.cfg.Obs != nil {
					n.cfg.Obs.Heartbeats.Inc()
				}
			case <-connCtx.Done():
				return
			}
		}
	}()

	var readErr error
	for {
		_ = conn.SetReadDeadline(time.Time{}) // liveness is the coordinator's side
		m, err := ReadMessage(br)
		if err != nil {
			readErr = err
			connCancel() // connection gone: release heartbeats, cancel running work
			break
		}
		switch v := m.(type) {
		case *Assign:
			// Assignments in the credit window run concurrently; the
			// shared per-job session bounds actual parallelism at the
			// pool's worker count, so capacity stays an honest number.
			n.mu.Lock()
			n.inflight++
			n.mu.Unlock()
			workers.Add(1)
			go func() {
				defer workers.Done()
				n.execute(connCtx, v)
				n.mu.Lock()
				n.inflight--
				n.mu.Unlock()
			}()
		case *Drain:
			n.cfg.Logf("icemesh: coordinator drain: %s", v.Reason)
		default:
			// Tolerate unknown-but-valid control messages.
		}
	}
	workers.Wait()
	_ = n.batch.flushThen(nil) // stop the flush timer; a send would fail anyway

	if ctx.Err() != nil || n.isDraining() {
		return nil // orderly shutdown
	}
	return readErr
}

// execute runs one assigned range on the job's cached session and
// streams results back through the batcher. Cell-level failures ride
// their CellDone (matching local fleet semantics, where a bad cell
// doesn't kill the ensemble); only range-level failures — an unknown
// scenario, an impossible range — fail the shard.
func (n *Node) execute(ctx context.Context, a *Assign) {
	var t0 time.Time
	if n.cfg.Obs != nil {
		t0 = time.Now()
	}
	ns, release, err := n.sessionFor(a)
	sp := icescope.Span{}
	switch {
	case ns != nil && ns.fwd != nil:
		// Traced job: the shard span rides the forwarding trace, so the
		// coordinator's job trace shows this node's shards and cells.
		sp = ns.fwd.root.Child(fmt.Sprintf("shard %d [%d,%d)", a.Shard, a.Start, a.End))
	case n.sess.Active():
		sp = n.sess.Child(fmt.Sprintf("shard %d [%d,%d)", a.Shard, a.Start, a.End))
	}
	if err == nil && a.End > ns.sess.Spec().Cells {
		err = fmt.Errorf("range [%d,%d) outside rebuilt spec (%d cells)", a.Start, a.End, ns.sess.Spec().Cells)
	}
	if err != nil {
		if release != nil {
			release()
		}
		sp.End(icescope.StrAttr("outcome", "failed"))
		if ns != nil {
			ns.fwd.detachFlush(a.Shard)
		}
		_ = n.batch.flushThen(&ShardDone{Shard: a.Shard, Err: err.Error()})
		if n.cfg.Obs != nil {
			n.cfg.Obs.ShardsFailed.Inc()
		}
		return
	}
	_, _ = ns.sess.RunRange(ctx, a.Start, a.End, func(r fleet.Result) {
		cd := CellDone{
			Shard: a.Shard, Index: r.Cell.Index, Seed: r.Cell.Seed,
			Events: r.Events, WireBytes: r.WireBytes, WireEncodeNS: r.WireEncodeNS,
			Metrics: r.Metrics,
		}
		if r.Err != nil {
			cd.Err = r.Err.Error()
		}
		n.batch.add(cd)
		n.mu.Lock()
		n.cellsDone++
		n.mu.Unlock()
		if n.cfg.Obs != nil {
			n.cfg.Obs.CellsDone.Inc()
		}
	})
	release()
	if ctx.Err() != nil {
		// Connection teardown cancelled the range mid-dispatch: cells may
		// have been skipped, so a clean ShardDone here could race ahead of
		// the coordinator's eviction and retire the shard with holes in
		// it. Send nothing — eviction re-queues everything we held, and
		// any cells we did deliver are deduplicated on the re-run. Spans
		// are dropped for the same reason: the re-run records its own.
		sp.End(icescope.StrAttr("outcome", "cancelled"))
		ns.fwd.drop(a.Shard)
		return
	}
	// End the shard span (publishing its event), flush the spans it and
	// its cells produced while this locator is still live, and only then
	// retire the shard. Frame order is write order on TCP, so the
	// coordinator injects every span of a shard before the ShardDone —
	// and before the job can finish — arrives.
	sp.End(icescope.StrAttr("outcome", "done"), icescope.IntAttr("cells", a.End-a.Start))
	ns.fwd.detachFlush(a.Shard)
	_ = n.batch.flushThen(&ShardDone{Shard: a.Shard})
	if n.cfg.Obs != nil {
		n.cfg.Obs.ShardsDone.Inc()
		n.cfg.Obs.ShardSeconds.Observe(time.Since(t0).Seconds())
	}
}

func (n *Node) isDraining() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.draining
}

// Drain is the node's graceful-shutdown handshake: announce the drain
// (the coordinator assigns nothing more), finish everything queued and
// executing, and return once idle — or with ctx's error at the
// deadline, leaving stragglers to the coordinator's re-assignment.
func (n *Node) Drain(ctx context.Context) error {
	n.mu.Lock()
	already := n.draining
	n.draining = true
	n.mu.Unlock()
	if !already {
		_ = n.send(&Drain{Reason: "node draining"})
	}
	for {
		n.mu.Lock()
		idle := n.inflight == 0
		n.mu.Unlock()
		if idle {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("icemesh: drain deadline: %w", ctx.Err())
		case <-time.After(10 * time.Millisecond):
		}
	}
}
