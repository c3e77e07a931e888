//! The per-rank communicator handle and the shared "world" behind it.
//!
//! Semantics mirror MPI: `P` ranks execute the same program; collectives
//! must be entered by every rank in the same order; the messages of a
//! split-phase exchange round are matched by `(source, tag)` in FIFO order
//! per `(source, tag)` pair.
//!
//! Internally the world is a set of FIFO mailboxes (point-to-point)
//! plus a staging area and a reusable barrier for collectives.
//! A collective is: *write my slot → barrier → read everyone's slots →
//! barrier*. The trailing barrier makes slot reuse by the next collective
//! safe.
//!
//! ## One executor, and what a dead rank does to it
//!
//! Every rank is an OS thread (`spmd::run`), and a rank blocks in exactly
//! two places: `World::pop_blocking` (an `exchange_end` with nothing
//! matching yet) and `World::barrier_wait`
//! (every collective). Both sleep on a condvar. When a rank's closure
//! panics, `spmd::run` calls `World::abort`: the world remembers the
//! first dead rank and wakes every condvar, and any rank that is blocked
//! there, or blocks there later, panics naming the dead rank instead of
//! waiting for a peer that will never arrive.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use obs::Recorder;

use crate::exchange::Exchange;
use crate::fault::{FaultCounters, FaultPlan, FaultState};
use crate::pod::{as_bytes, extend_from_bytes, from_bytes, read_bytes, Pod};
use crate::stats::CommStats;

/// `World::dead` while every rank is alive.
const ALIVE: usize = usize::MAX;

/// A point-to-point message in flight.
pub(crate) struct Message {
    src: usize,
    tag: u64,
    bytes: Vec<u8>,
}

/// One rank's incoming-message queue: a FIFO under a mutex, with a
/// condvar its owner sleeps on. Senders push under the lock in program
/// order, which is the per-`(src, tag)` FIFO invariant the matching layer
/// relies on.
struct Mailbox {
    q: Mutex<VecDeque<Message>>,
    cv: Condvar,
}

/// Generation barrier state (rather than `std::sync::Barrier`, which
/// cannot be woken when a peer dies).
struct BarState {
    count: usize,
    gen: u64,
}

/// Shared state of a simulated machine with `nranks` ranks.
pub(crate) struct World {
    nranks: usize,
    /// The first rank whose closure panicked, or [`ALIVE`].
    dead: AtomicUsize,
    /// Reusable rendezvous for collectives.
    bar: Mutex<BarState>,
    bar_cv: Condvar,
    /// One staging slot per rank for gather-style collectives.
    slots: Vec<Mutex<Vec<u8>>>,
    /// `nranks * nranks` staging matrix for all-to-all collectives,
    /// indexed `src * nranks + dst`.
    matrix: Vec<Mutex<Vec<u8>>>,
    /// One FIFO mailbox per rank.
    mailboxes: Vec<Mailbox>,
    /// Attach-once guard per rank.
    attached: Vec<AtomicBool>,
}

impl World {
    pub(crate) fn new(nranks: usize) -> Arc<World> {
        assert!(nranks >= 1, "a communicator needs at least one rank");
        Arc::new(World {
            nranks,
            dead: AtomicUsize::new(ALIVE),
            bar: Mutex::new(BarState { count: 0, gen: 0 }),
            bar_cv: Condvar::new(),
            slots: (0..nranks).map(|_| Mutex::new(Vec::new())).collect(),
            matrix: (0..nranks * nranks)
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
            mailboxes: (0..nranks)
                .map(|_| Mailbox {
                    q: Mutex::new(VecDeque::new()),
                    cv: Condvar::new(),
                })
                .collect(),
            attached: (0..nranks).map(|_| AtomicBool::new(false)).collect(),
        })
    }

    /// Build the communicator handle for `rank`. Each rank must be attached
    /// exactly once.
    pub(crate) fn attach(self: &Arc<World>, rank: usize) -> Comm {
        assert!(
            !self.attached[rank].swap(true, SeqCst),
            "rank attached twice"
        );
        Comm {
            world: Arc::clone(self),
            rank,
            pending: RefCell::new(VecDeque::new()),
            spare: RefCell::new(Vec::new()),
            stats: RefCell::new(CommStats::default()),
            rec: RefCell::new(None),
            fault: RefCell::new(None),
        }
    }

    /// Record that `rank`'s closure panicked and wake every blocked rank.
    /// Only the first death is kept: later ones are its consequences.
    pub(crate) fn abort(&self, rank: usize) {
        let _ = self.dead.compare_exchange(ALIVE, rank, SeqCst, SeqCst);
        // Notify under each lock, so a waiter that checked `dead` before
        // the store above is already asleep and gets the wake-up. A lock
        // poisoned by the panic is still a lock.
        for mb in &self.mailboxes {
            let _q = mb.q.lock().unwrap_or_else(PoisonError::into_inner);
            mb.cv.notify_all();
        }
        let _st = self.bar.lock().unwrap_or_else(PoisonError::into_inner);
        self.bar_cv.notify_all();
    }

    /// The first rank whose closure panicked, if any.
    pub(crate) fn dead_rank(&self) -> Option<usize> {
        match self.dead.load(SeqCst) {
            ALIVE => None,
            r => Some(r),
        }
    }

    /// Deliver a message into `dst`'s mailbox and wake `dst`.
    fn post(&self, dst: usize, msg: Message) {
        self.mailboxes[dst].q.lock().unwrap().push_back(msg);
        self.mailboxes[dst].cv.notify_one();
    }

    /// Non-blocking pop from `rank`'s own mailbox.
    fn try_pop(&self, rank: usize) -> Option<Message> {
        self.mailboxes[rank].q.lock().unwrap().pop_front()
    }

    /// Blocking pop from `rank`'s own mailbox.
    fn pop_blocking(&self, rank: usize) -> Message {
        let mb = &self.mailboxes[rank];
        let mut q = mb.q.lock().unwrap();
        loop {
            if let Some(m) = q.pop_front() {
                return m;
            }
            if let Some(dead) = self.dead_rank() {
                drop(q);
                dead_peer(rank, dead);
            }
            q = mb.cv.wait(q).unwrap();
        }
    }

    /// Rendezvous of all ranks (the collective building block).
    fn barrier_wait(&self, rank: usize) {
        let mut st = self.bar.lock().unwrap();
        let my_gen = st.gen;
        st.count += 1;
        if st.count == self.nranks {
            st.count = 0;
            st.gen = st.gen.wrapping_add(1);
            self.bar_cv.notify_all();
            return;
        }
        while st.gen == my_gen {
            if let Some(dead) = self.dead_rank() {
                drop(st);
                dead_peer(rank, dead);
            }
            st = self.bar_cv.wait(st).unwrap();
        }
    }
}

/// `rank` was about to wait for a peer, or for someone who waits for one,
/// but rank `dead` has panicked: end this rank too, and say why. Callers
/// drop their lock first, so this panic poisons nothing.
fn dead_peer(rank: usize, dead: usize) -> ! {
    panic!("scomm: rank {rank} cannot complete a blocking operation: rank {dead} panicked");
}

/// Per-rank communicator handle (the analogue of an `MPI_Comm` plus the
/// calling rank). Owned by exactly one thread; not `Sync`.
pub struct Comm {
    world: Arc<World>,
    rank: usize,
    /// Messages received but not yet matched by an `exchange_end`.
    pending: RefCell<VecDeque<Message>>,
    /// Payload buffers of matched messages, refilled by the next
    /// `exchange_start`. At most `size() + 1` are kept: one more than a
    /// round can receive, so that a round that receives more than it sends
    /// (a forward exchange on a rank with more owners than readers) drops
    /// no buffer the next round sends in.
    spare: RefCell<Vec<Vec<u8>>>,
    stats: RefCell<CommStats>,
    /// Optional telemetry recorder; when attached, every communication op
    /// emits a `comm`-category span and message sizes feed a histogram.
    rec: RefCell<Option<Recorder>>,
    /// Optional adversarial scheduler (see [`crate::fault`]); when attached,
    /// p2p deliveries pass through a seeded jitter buffer and collectives
    /// stagger their entry.
    fault: RefCell<Option<FaultState<Message>>>,
}

impl Comm {
    /// This rank's id in `0..size()`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    #[inline]
    pub fn size(&self) -> usize {
        self.world.nranks
    }

    /// Snapshot of the communication statistics accumulated so far.
    pub fn stats(&self) -> CommStats {
        self.stats.borrow().clone()
    }

    /// Attach a telemetry recorder. From here on every communication op
    /// records a span named `comm:<op>` (category `"comm"`) — wait time at
    /// barriers shows up as span duration — and payload sizes are recorded
    /// into the `comm.bytes` histogram.
    pub fn set_recorder(&self, rec: Recorder) {
        *self.rec.borrow_mut() = Some(rec);
    }

    /// The attached recorder, if any. Cloning is cheap: a `Recorder` is a
    /// shared handle, so layers above (solvers, AMR) can pick up the same
    /// per-rank recorder from the communicator they were given.
    pub fn recorder(&self) -> Option<Recorder> {
        self.rec.borrow().clone()
    }

    /// Open a `comm`-category span for one op, if a recorder is attached.
    fn op_span(&self, name: &'static str) -> Option<obs::SpanGuard> {
        self.rec.borrow().as_ref().map(|r| r.span_cat(name, "comm"))
    }

    /// Record one op's payload size into the message-size histogram.
    fn op_bytes(&self, bytes: u64) {
        if let Some(r) = self.rec.borrow().as_ref() {
            r.record_value("comm.bytes", bytes);
        }
    }

    // ----------------------------------------------------------------
    // Fault injection
    // ----------------------------------------------------------------

    /// Attach (or with `None`, detach) a seeded adversarial scheduler.
    /// While attached, point-to-point deliveries on *this rank* pass
    /// through a deterministic jitter buffer (delay / reorder /
    /// drop-with-panic) and collective entries may stagger. Typically
    /// every rank attaches the same plan right after `spmd::run` starts.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        *self.fault.borrow_mut() = plan.map(|p| FaultState::new(p, self.rank));
    }

    /// What the fault scheduler did so far (`None` when no plan attached).
    pub fn fault_counters(&self) -> Option<FaultCounters> {
        self.fault.borrow().as_ref().map(|f| f.counters)
    }

    /// Enter the collective rendezvous.
    fn coll_barrier(&self) {
        self.world.barrier_wait(self.rank);
    }

    /// Pull the next message off the wire, through the fault scheduler when
    /// one is attached. Deadlock-free: the virtual clock only advances when
    /// the real inbox is empty, so every held message is eventually
    /// released without requiring further traffic.
    fn pull_message(&self) -> Message {
        let mut fault = self.fault.borrow_mut();
        let Some(fs) = fault.as_mut() else {
            drop(fault);
            return self.world.pop_blocking(self.rank);
        };
        loop {
            // Admit everything already arrived without blocking.
            while let Some(m) = self.world.try_pop(self.rank) {
                let (src, tag) = (m.src, m.tag);
                fs.admit(src, tag, m);
            }
            if let Some(m) = fs.pop_ready() {
                return m;
            }
            if fs.is_drained() {
                // Nothing buffered: block for the next real arrival.
                let m = self.world.pop_blocking(self.rank);
                let (src, tag) = (m.src, m.tag);
                fs.admit(src, tag, m);
            } else {
                // Buffered but not yet released and nothing new arriving:
                // advance the virtual clock to the earliest release.
                fs.tick_to_next_release();
            }
        }
    }

    /// Seeded stagger before entering a collective rendezvous.
    fn maybe_stagger(&self) {
        let yields = self
            .fault
            .borrow_mut()
            .as_mut()
            .map_or(0, |f| f.collective_stagger());
        for _ in 0..yields {
            std::thread::yield_now();
        }
    }

    // ----------------------------------------------------------------
    // Split-phase neighbor exchange: the one point-to-point primitive
    // ----------------------------------------------------------------

    /// Block until a message from `src` with `tag` is available and return
    /// it. Scans earlier unmatched arrivals first, then pulls from the wire
    /// (through the fault scheduler when one is attached, so delays and
    /// reordering take effect here — at completion time).
    fn match_message(&self, src: usize, tag: u64) -> Message {
        {
            let mut pending = self.pending.borrow_mut();
            if let Some(pos) = pending.iter().position(|m| m.src == src && m.tag == tag) {
                return pending.remove(pos).unwrap();
            }
        }
        loop {
            let msg = self.pull_message();
            if msg.src == src && msg.tag == tag {
                return msg;
            }
            self.pending.borrow_mut().push_back(msg);
        }
    }

    /// Post one round of a split-phase neighbor exchange: the
    /// point-to-point counterpart of [`Comm::alltoallv_flat`], with the
    /// same flat-buffer convention. `send` holds the payloads for ranks
    /// `0..size()` back to back (`send_counts[d]` elements each) and
    /// `recv_counts[s]` is the number of elements this rank expects from
    /// rank `s` — split-phase completion has no rendezvous at which the
    /// counts could be discovered, so the caller must know them (ghost
    /// exchange patterns always do).
    ///
    /// One tagged point-to-point message is posted per destination with a
    /// nonempty payload, its bytes copied into a buffer recycled from a
    /// message an earlier `exchange_end` matched (a fresh one only while
    /// none is spare); the self-payload is staged locally. No barrier is
    /// involved at either end: a rank only ever waits for the neighbors it
    /// expects data from, and only at [`Comm::exchange_end`].
    pub fn exchange_start<T: Pod>(
        &self,
        send: &[T],
        send_counts: &[usize],
        recv_counts: &[usize],
        ex: &mut Exchange,
    ) {
        let p = self.size();
        assert_eq!(send_counts.len(), p, "exchange needs one count per rank");
        assert_eq!(recv_counts.len(), p, "exchange needs one count per rank");
        assert_eq!(
            send_counts.iter().sum::<usize>(),
            send.len(),
            "send counts must cover the flat send buffer exactly"
        );
        assert!(
            !ex.in_flight,
            "exchange_start called twice on stream {} without exchange_end",
            ex.stream
        );
        let tag = ex.tag();
        ex.expect.clear();
        ex.expect.extend_from_slice(recv_counts);
        ex.self_buf.clear();
        ex.posted_ns = self.rec.borrow().as_ref().map(|r| r.now_ns());
        let mut sent_bytes = 0u64;
        let mut msgs = 0u64;
        let mut off = 0usize;
        for (dst, &cnt) in send_counts.iter().enumerate() {
            let chunk = &send[off..off + cnt];
            off += cnt;
            if dst == self.rank {
                ex.self_buf.extend_from_slice(as_bytes(chunk));
                continue;
            }
            if cnt == 0 {
                continue;
            }
            let mut bytes = self.spare.borrow_mut().pop().unwrap_or_default();
            bytes.clear();
            bytes.extend_from_slice(as_bytes(chunk));
            sent_bytes += bytes.len() as u64;
            msgs += 1;
            self.world.post(
                dst,
                Message {
                    src: self.rank,
                    tag,
                    bytes,
                },
            );
        }
        {
            let mut s = self.stats.borrow_mut();
            s.exchanges += 1;
            s.p2p_messages += msgs;
            s.p2p_bytes += sent_bytes;
        }
        self.op_bytes(sent_bytes);
        ex.in_flight = true;
    }

    /// Complete the in-flight exchange round on `ex`. Payloads are
    /// appended to `recv` (cleared first, capacity reused) in source-rank
    /// order and `recv_counts` reports per-source element counts — the
    /// exact layout [`Comm::alltoallv_flat`] produces, so the two are
    /// drop-in interchangeable for a caller that knows its receive counts.
    ///
    /// Blocks per missing neighbor message; fault-plan delays and drops
    /// act here, at completion. With a recorder attached, a `comm:exchange`
    /// span covering post→complete is recorded.
    pub fn exchange_end<T: Pod>(
        &self,
        ex: &mut Exchange,
        recv: &mut Vec<T>,
        recv_counts: &mut Vec<usize>,
    ) {
        assert!(
            ex.in_flight,
            "exchange_end on stream {} without a posted exchange_start",
            ex.stream
        );
        let p = self.size();
        let tag = ex.tag();
        recv.clear();
        recv_counts.clear();
        let elem = std::mem::size_of::<T>().max(1);
        for src in 0..p {
            let cnt = ex.expect[src];
            recv_counts.push(cnt);
            if src == self.rank {
                assert_eq!(
                    ex.self_buf.len(),
                    cnt * elem,
                    "self payload does not match the expected count"
                );
                extend_from_bytes(recv, &ex.self_buf);
                continue;
            }
            if cnt == 0 {
                continue;
            }
            let msg = self.match_message(src, tag);
            assert_eq!(
                msg.bytes.len(),
                cnt * elem,
                "exchange payload from rank {src} does not match the expected count"
            );
            extend_from_bytes(recv, &msg.bytes);
            let mut spare = self.spare.borrow_mut();
            if spare.len() <= p {
                spare.push(msg.bytes);
            }
        }
        ex.in_flight = false;
        ex.seq = ex.seq.wrapping_add(1);
        if let Some(r) = self.rec.borrow().as_ref() {
            let end = r.now_ns();
            let post = ex.posted_ns.unwrap_or(end);
            r.add_span_external("comm:exchange", "comm", post, end.saturating_sub(post));
        }
    }

    // ----------------------------------------------------------------
    // Collectives
    // ----------------------------------------------------------------

    /// Synchronize all ranks.
    pub fn barrier(&self) {
        let _t = self.op_span("comm:barrier");
        self.maybe_stagger();
        self.stats.borrow_mut().barriers += 1;
        self.coll_barrier();
    }

    /// Book one collective's read volume in the statistics and the
    /// message-size histogram.
    fn count_collective_bytes(&self, bytes: u64) {
        self.stats.borrow_mut().collective_bytes += bytes;
        self.op_bytes(bytes);
    }

    /// The one slot body behind `allgatherv_into`, the reductions and
    /// `exscan_sum`: publish `data` in this rank's slot, rendezvous, hand
    /// every rank's slot to `take` in ascending rank order, rendezvous, and
    /// book the bytes read. It allocates nothing once the slot has grown,
    /// opens no span and bumps no counter but the bytes, so each public
    /// collective records exactly one span and one counter — its own.
    fn gather_slots<T: Pod>(&self, data: &[T], mut take: impl FnMut(usize, &[u8])) {
        self.maybe_stagger();
        let world = &self.world;
        {
            let mut slot = world.slots[self.rank].lock().unwrap();
            slot.clear();
            slot.extend_from_slice(as_bytes(data));
        }
        self.coll_barrier();
        let mut bytes = 0u64;
        for (r, slot) in world.slots.iter().enumerate() {
            let slot = slot.lock().unwrap();
            bytes += slot.len() as u64;
            take(r, &slot);
        }
        self.coll_barrier();
        self.count_collective_bytes(bytes);
    }

    /// Gather `data` (same length on every rank) from all ranks, in rank
    /// order, on all ranks.
    pub fn allgather<T: Pod>(&self, data: &[T]) -> Vec<T> {
        self.allgatherv(data)
    }

    /// Gather variable-length contributions from all ranks, concatenated in
    /// rank order, on all ranks.
    pub fn allgatherv<T: Pod>(&self, data: &[T]) -> Vec<T> {
        let mut out = Vec::new();
        self.allgatherv_into(data, &mut out);
        out
    }

    /// Allocation-free counterpart of [`Comm::allgatherv`]: gathered
    /// contributions are appended to `out` (cleared first, capacity
    /// reused) in rank order.
    pub fn allgatherv_into<T: Pod>(&self, data: &[T], out: &mut Vec<T>) {
        let _t = self.op_span("comm:allgatherv");
        out.clear();
        self.gather_slots(data, |_, slot| extend_from_bytes(out, slot));
        self.stats.borrow_mut().allgathers += 1;
    }

    /// The numbering in which each rank holds `n` consecutive ids, ranks
    /// in order, into `out`: every rank's first id, then the total, from
    /// one [`Comm::allgatherv_into`]. Collective.
    pub fn offsets_into(&self, n: u64, out: &mut Vec<u64>) {
        self.allgatherv_into(&[n], out);
        let mut sum = 0;
        for o in out.iter_mut() {
            (*o, sum) = (sum, sum + *o);
        }
        out.push(sum);
    }

    /// Elementwise all-reduce of `N` values (equal `N` on every rank) into
    /// a stack array. The fold order is fixed — rank 0's contribution
    /// first, then ascending rank order — independent of message timing,
    /// so the result is bitwise identical on every rank.
    fn reduce<T: Pod, const N: usize>(&self, data: &[T; N], op: impl Fn(T, T) -> T) -> [T; N] {
        let _t = self.op_span("comm:allreduce");
        let mut all = *data;
        self.gather_slots(data, |r, slot| {
            let v: [T; N] = read_bytes(slot);
            all = if r == 0 {
                v
            } else {
                std::array::from_fn(|i| op(all[i], v[i]))
            };
        });
        self.stats.borrow_mut().allreduces += 1;
        all
    }

    /// Elementwise global sum.
    pub fn allreduce_sum<T, const N: usize>(&self, data: &[T; N]) -> [T; N]
    where
        T: Pod + std::ops::Add<Output = T>,
    {
        self.reduce(data, |a, b| a + b)
    }

    /// Elementwise global max.
    pub fn allreduce_max<T: Pod + PartialOrd, const N: usize>(&self, data: &[T; N]) -> [T; N] {
        self.reduce(data, |a, b| if b > a { b } else { a })
    }

    /// Elementwise global min.
    pub fn allreduce_min<T: Pod + PartialOrd, const N: usize>(&self, data: &[T; N]) -> [T; N] {
        self.reduce(data, |a, b| if b < a { b } else { a })
    }

    /// Exclusive prefix sum over one value per rank: rank r receives the
    /// sum of the values of ranks `0..r` (0 on rank 0), folded in
    /// ascending rank order onto `T::default()`.
    pub fn exscan_sum<T>(&self, value: T) -> T
    where
        T: Pod + std::ops::Add<Output = T> + Default,
    {
        let _t = self.op_span("comm:exscan");
        let mut sum = T::default();
        self.gather_slots(&[value], |r, slot| {
            if r < self.rank {
                sum = sum + read_bytes(slot);
            }
        });
        self.stats.borrow_mut().exscans += 1;
        sum
    }

    /// Broadcast `data` from `root` to all ranks.
    pub fn bcast<T: Pod>(&self, root: usize, data: &[T]) -> Vec<T> {
        let _t = self.op_span("comm:bcast");
        self.maybe_stagger();
        let world = &self.world;
        if self.rank == root {
            let mut slot = world.slots[root].lock().unwrap();
            slot.clear();
            slot.extend_from_slice(as_bytes(data));
        }
        self.coll_barrier();
        let out = {
            let slot = world.slots[root].lock().unwrap();
            from_bytes::<T>(&slot)
        };
        self.coll_barrier();
        self.stats.borrow_mut().bcasts += 1;
        self.count_collective_bytes((out.len() * std::mem::size_of::<T>()) as u64);
        out
    }

    /// The one all-to-all body behind [`Comm::alltoallv`] and
    /// [`Comm::alltoallv_flat`]: stage `payloads` (one slice per
    /// destination rank, in rank order) in the staging matrix, rendezvous,
    /// hand every slot addressed to this rank to `take` in source-rank
    /// order, rendezvous.
    fn alltoallv_slots<'a, T: Pod>(
        &self,
        payloads: impl ExactSizeIterator<Item = &'a [T]>,
        mut take: impl FnMut(&[u8]),
    ) {
        let _t = self.op_span("comm:alltoallv");
        let p = self.size();
        assert_eq!(payloads.len(), p, "alltoallv needs one payload per rank");
        self.maybe_stagger();
        let world = &self.world;
        let mut sent_bytes = 0u64;
        let mut msgs = 0u64;
        for (dst, payload) in payloads.enumerate() {
            let mut slot = world.matrix[self.rank * p + dst].lock().unwrap();
            slot.clear();
            slot.extend_from_slice(as_bytes(payload));
            if dst != self.rank && !payload.is_empty() {
                sent_bytes += slot.len() as u64;
                msgs += 1;
            }
        }
        self.coll_barrier();
        for src in 0..p {
            take(&world.matrix[src * p + self.rank].lock().unwrap());
        }
        self.coll_barrier();
        {
            let mut s = self.stats.borrow_mut();
            s.alltoalls += 1;
            s.p2p_messages += msgs;
            s.p2p_bytes += sent_bytes;
        }
        self.op_bytes(sent_bytes);
    }

    /// Personalized all-to-all: `outgoing[d]` is this rank's payload for
    /// rank `d` (length `size()`); returns `incoming` where `incoming[s]`
    /// is the payload rank `s` sent to this rank.
    pub fn alltoallv<T: Pod>(&self, outgoing: &[Vec<T>]) -> Vec<Vec<T>> {
        let mut incoming = Vec::with_capacity(outgoing.len());
        self.alltoallv_slots(outgoing.iter().map(Vec::as_slice), |slot| {
            incoming.push(from_bytes(slot))
        });
        incoming
    }

    /// Personalized all-to-all over flat, caller-managed buffers — the
    /// allocation-free counterpart of [`Comm::alltoallv`]. `send` holds the
    /// payloads for ranks `0..size()` back to back, `send_counts[d]`
    /// elements each. Received payloads are appended to `recv` (cleared
    /// first, capacity reused) in source-rank order and `recv_counts[s]`
    /// reports how many elements rank `s` sent.
    pub fn alltoallv_flat<T: Pod>(
        &self,
        send: &[T],
        send_counts: &[usize],
        recv: &mut Vec<T>,
        recv_counts: &mut Vec<usize>,
    ) {
        assert_eq!(
            send_counts.iter().sum::<usize>(),
            send.len(),
            "send counts must cover the flat send buffer exactly"
        );
        recv.clear();
        recv_counts.clear();
        let elem = std::mem::size_of::<T>().max(1);
        let mut off = 0usize;
        let chunks = send_counts.iter().map(|&cnt| {
            off += cnt;
            &send[off - cnt..off]
        });
        self.alltoallv_slots(chunks, |slot| {
            recv_counts.push(slot.len() / elem);
            extend_from_bytes(recv, slot);
        });
    }
}

#[cfg(test)]
mod tests {
    use crate::exchange::Exchange;
    use crate::fault::FaultPlan;
    use crate::spmd;

    #[test]
    fn rank_and_size() {
        let out = spmd::run(5, |c| (c.rank(), c.size()));
        for (r, (rank, size)) in out.iter().enumerate() {
            assert_eq!(*rank, r);
            assert_eq!(*size, 5);
        }
    }

    #[test]
    fn allgatherv_variable_lengths() {
        let out = spmd::run(4, |c| {
            let mine: Vec<u64> = (0..c.rank() as u64).collect();
            c.allgatherv(&mine)
        });
        let expect: Vec<u64> = vec![0, 0, 1, 0, 1, 2];
        for o in out {
            assert_eq!(o, expect);
        }
    }

    #[test]
    fn allgatherv_into_reuses_buffer() {
        let out = spmd::run(4, |c| {
            let mine: Vec<u64> = (0..c.rank() as u64).collect();
            let mut buf = Vec::new();
            c.allgatherv_into(&mine, &mut buf);
            // Warm call must reuse the output buffer's allocation.
            let ptr = buf.as_ptr();
            c.allgatherv_into(&mine, &mut buf);
            assert_eq!(ptr, buf.as_ptr(), "allgatherv_into must not reallocate");
            (buf, c.stats().allgathers)
        });
        for (o, gathers) in out {
            assert_eq!(o, vec![0, 0, 1, 0, 1, 2]);
            assert_eq!(gathers, 2, "each call counts as one allgather");
        }
    }

    #[test]
    fn allreduce_min_max() {
        let out = spmd::run(4, |c| {
            let v = [c.rank() as f64, -(c.rank() as f64)];
            let mx = c.allreduce_max(&v);
            let mn = c.allreduce_min(&v);
            (mx[0], mx[1], mn[0], mn[1])
        });
        for o in out {
            assert_eq!(o, (3.0, 0.0, 0.0, -3.0));
        }
    }

    #[test]
    fn allreduce_counts_one_call_and_its_read_volume() {
        let p = 3;
        let out = spmd::run(p, |c| {
            let delta = |f: &dyn Fn()| {
                let s0 = c.stats();
                f();
                let s1 = c.stats();
                [
                    s1.allreduces - s0.allreduces,
                    s1.collective_bytes - s0.collective_bytes,
                ]
            };
            [
                delta(&|| _ = c.allreduce_sum(&[1.0f64; 5])),
                delta(&|| _ = c.allreduce_max(&[7u32])),
            ]
        });
        for o in out {
            assert_eq!(o, [[1, 5 * 8 * p as u64], [1, 4 * p as u64]]);
        }
    }

    #[test]
    fn exscan() {
        let out = spmd::run(5, |c| c.exscan_sum((c.rank() + 1) as u64));
        assert_eq!(out, vec![0, 1, 3, 6, 10]);
    }

    #[test]
    fn bcast_from_nonzero_root() {
        let out = spmd::run(3, |c| {
            let data = if c.rank() == 2 {
                vec![42u32, 43]
            } else {
                vec![]
            };
            c.bcast(2, &data)
        });
        for o in out {
            assert_eq!(o, vec![42, 43]);
        }
    }

    #[test]
    fn alltoallv_exchange() {
        let p = 4;
        let out = spmd::run(p, |c| {
            let outgoing: Vec<Vec<u64>> = (0..c.size())
                .map(|d| vec![(c.rank() * 10 + d) as u64])
                .collect();
            c.alltoallv(&outgoing)
        });
        for (me, incoming) in out.iter().enumerate() {
            for (src, payload) in incoming.iter().enumerate() {
                assert_eq!(payload, &vec![(src * 10 + me) as u64]);
            }
        }
    }

    #[test]
    fn alltoallv_flat_matches_nested_and_reuses_buffers() {
        let p = 4;
        let out = spmd::run(p, |c| {
            // Nested reference path.
            let outgoing: Vec<Vec<u64>> = (0..c.size())
                .map(|d| {
                    (0..d)
                        .map(|i| (c.rank() * 100 + d * 10 + i) as u64)
                        .collect()
                })
                .collect();
            let nested = c.alltoallv(&outgoing);
            let s0 = c.stats();

            // Flat path with the same payloads must deliver identical data
            // and account identical message/byte counts.
            let send: Vec<u64> = outgoing.iter().flatten().copied().collect();
            let send_counts: Vec<usize> = outgoing.iter().map(Vec::len).collect();
            let mut recv = Vec::new();
            let mut recv_counts = Vec::new();
            c.alltoallv_flat(&send, &send_counts, &mut recv, &mut recv_counts);
            let s1 = c.stats();
            assert_eq!(s1.alltoalls - s0.alltoalls, 1);
            assert_eq!(s1.p2p_messages - s0.p2p_messages, s0.p2p_messages);
            assert_eq!(s1.p2p_bytes - s0.p2p_bytes, s0.p2p_bytes);

            let flat_nested: Vec<u64> = nested.iter().flatten().copied().collect();
            assert_eq!(recv, flat_nested);
            assert_eq!(recv_counts, nested.iter().map(Vec::len).collect::<Vec<_>>());

            // Second call must reuse the receive buffer's allocation.
            let ptr = recv.as_ptr();
            c.alltoallv_flat(&send, &send_counts, &mut recv, &mut recv_counts);
            assert_eq!(recv, flat_nested);
            assert_eq!(recv.as_ptr(), ptr, "flat exchange must not reallocate");
            c.stats()
        });
        for s in out {
            assert_eq!(s.alltoalls, 3);
        }
    }

    #[test]
    fn alltoallv_empty_payloads() {
        let out = spmd::run(3, |c| {
            let outgoing: Vec<Vec<f64>> = vec![Vec::new(); c.size()];
            c.alltoallv(&outgoing)
        });
        for incoming in out {
            assert!(incoming.iter().all(|v| v.is_empty()));
        }
    }

    #[test]
    fn stats_counting() {
        let out = spmd::run(2, |c| {
            c.barrier();
            let _ = c.allgather(&[1u64]);
            // Rank 0 sends eight values to rank 1; rank 1 sends nothing.
            let (send, send_counts, recv_counts) = if c.rank() == 0 {
                (vec![1.0f64; 8], [0, 8], [0, 0])
            } else {
                (Vec::new(), [0, 0], [8, 0])
            };
            let mut ex = Exchange::new(1);
            let (mut recv, mut counts) = (Vec::<f64>::new(), Vec::new());
            c.exchange_start(&send, &send_counts, &recv_counts, &mut ex);
            c.exchange_end(&mut ex, &mut recv, &mut counts);
            c.barrier();
            c.stats()
        });
        assert_eq!(out[0].barriers, 2);
        assert_eq!(out[0].allgathers, 1);
        assert_eq!(out[0].exchanges, 1);
        assert_eq!(out[0].p2p_messages, 1);
        assert_eq!(out[0].p2p_bytes, 64);
        assert_eq!(out[1].exchanges, 1);
        assert_eq!(out[1].p2p_messages, 0);
    }

    #[test]
    fn single_rank_world() {
        let out = spmd::run(1, |c| {
            let g = c.allgather(&[9u64]);
            let s = c.allreduce_sum(&[4.0f64]);
            (g, s[0])
        });
        assert_eq!(out[0].0, vec![9]);
        assert_eq!(out[0].1, 4.0);
    }

    #[test]
    fn fault_injection_collectives_unaffected_by_stagger() {
        let out = spmd::run(4, |c| {
            c.set_fault_plan(Some(FaultPlan::delays(7)));
            let g = c.allgather(&[c.rank() as u64]);
            let s = c.allreduce_sum(&[1.0f64])[0];
            let outgoing: Vec<Vec<u64>> =
                (0..c.size()).map(|d| vec![(c.rank() + d) as u64]).collect();
            let inc = c.alltoallv(&outgoing);
            c.set_fault_plan(None);
            (g, s, inc)
        });
        for (me, (g, s, inc)) in out.iter().enumerate() {
            assert_eq!(g, &vec![0, 1, 2, 3]);
            assert_eq!(*s, 4.0);
            for (src, payload) in inc.iter().enumerate() {
                assert_eq!(payload, &vec![(src + me) as u64]);
            }
        }
    }

    #[test]
    fn exchange_matches_alltoallv_flat() {
        // The split-phase pair must produce the exact flat layout of
        // alltoallv_flat — including the staged self-payload — and account
        // the same p2p message/byte deltas plus one exchange round.
        let p = 4;
        let out = spmd::run(p, |c| {
            let me = c.rank();
            let send: Vec<u64> = (0..c.size())
                .flat_map(|d| (0..d).map(move |i| (me * 100 + d * 10 + i) as u64))
                .collect();
            let send_counts: Vec<usize> = (0..c.size()).collect();
            let mut recv = Vec::new();
            let mut recv_counts = Vec::new();
            c.alltoallv_flat(&send, &send_counts, &mut recv, &mut recv_counts);
            let s0 = c.stats();

            let mut ex = Exchange::new(4);
            let expect = vec![me; c.size()];
            let mut recv2: Vec<u64> = Vec::new();
            let mut recv2_counts = Vec::new();
            c.exchange_start(&send, &send_counts, &expect, &mut ex);
            assert!(ex.in_flight());
            c.exchange_end(&mut ex, &mut recv2, &mut recv2_counts);
            assert!(!ex.in_flight());
            let s1 = c.stats();

            assert_eq!(recv2, recv);
            assert_eq!(recv2_counts, recv_counts);
            assert_eq!(s1.exchanges - s0.exchanges, 1);
            assert_eq!(s1.alltoalls, s0.alltoalls);
            assert_eq!(s1.p2p_messages - s0.p2p_messages, s0.p2p_messages);
            assert_eq!(s1.p2p_bytes - s0.p2p_bytes, s0.p2p_bytes);

            // Warm rounds must reuse the receive buffer's allocation.
            let ptr = recv2.as_ptr();
            c.exchange_start(&send, &send_counts, &expect, &mut ex);
            c.exchange_end(&mut ex, &mut recv2, &mut recv2_counts);
            assert_eq!(recv2, recv);
            assert_eq!(
                recv2.as_ptr(),
                ptr,
                "split-phase exchange must not reallocate"
            );
            recv2.len()
        });
        // Rank r expects r elements from each source in this payload shape.
        for (r, len) in out.iter().enumerate() {
            assert_eq!(*len, r * p);
        }
    }

    #[test]
    fn concurrent_exchange_streams_do_not_cross() {
        // Two exchanges in flight at once on distinct streams — the Stokes
        // velocity/pressure pattern — must each deliver their own payloads.
        let p = 3;
        let out = spmd::run(p, |c| {
            let me = c.rank() as u64;
            let ones = vec![1usize; c.size()];
            let a_send: Vec<u64> = (0..c.size() as u64).map(|d| 1000 + me * 10 + d).collect();
            let b_send: Vec<u64> = (0..c.size() as u64).map(|d| 2000 + me * 10 + d).collect();
            let mut exa = Exchange::new(1);
            let mut exb = Exchange::new(2);
            let (mut ra, mut ca): (Vec<u64>, Vec<usize>) = (Vec::new(), Vec::new());
            let (mut rb, mut cb): (Vec<u64>, Vec<usize>) = (Vec::new(), Vec::new());
            for _ in 0..8 {
                c.exchange_start(&a_send, &ones, &ones, &mut exa);
                c.exchange_start(&b_send, &ones, &ones, &mut exb);
                // Complete in the opposite order of posting.
                c.exchange_end(&mut exb, &mut rb, &mut cb);
                c.exchange_end(&mut exa, &mut ra, &mut ca);
                let want_a: Vec<u64> = (0..c.size() as u64).map(|s| 1000 + s * 10 + me).collect();
                let want_b: Vec<u64> = (0..c.size() as u64).map(|s| 2000 + s * 10 + me).collect();
                assert_eq!(ra, want_a);
                assert_eq!(rb, want_b);
            }
            c.stats().exchanges
        });
        for e in out {
            assert_eq!(e, 16);
        }
    }

    #[test]
    fn exchange_records_a_post_to_complete_span() {
        use obs::Recorder;
        let p = 2;
        let out = spmd::run(p, |c| {
            let rec = Recorder::new_manual_clock(c.rank());
            c.set_recorder(rec.clone());
            let ones = vec![1usize; p];
            let send = vec![c.rank() as u64; p];
            let mut ex = Exchange::new(1);
            let (mut recv, mut counts): (Vec<u64>, Vec<usize>) = (Vec::new(), Vec::new());
            c.exchange_start(&send, &ones, &ones, &mut ex);
            rec.advance_clock(500);
            c.exchange_end(&mut ex, &mut recv, &mut counts);
            let prof = rec.profile();
            prof.spans
                .iter()
                .find(|s| s.name == "comm:exchange")
                .map(|s| s.dur_ns)
        });
        for dur in out {
            assert_eq!(dur, Some(500), "the span must cover post→complete");
        }
    }

    #[test]
    fn fault_injection_exchange_delays_apply_at_completion() {
        let p = 4;
        let run_once = || {
            spmd::run(p, |c| {
                c.set_fault_plan(Some(FaultPlan::delays(0x5eed)));
                let me = c.rank() as u64;
                let ones = vec![1usize; c.size()];
                let mut ex = Exchange::new(3);
                let (mut recv, mut counts): (Vec<u64>, Vec<usize>) = (Vec::new(), Vec::new());
                for round in 0..12u64 {
                    let send: Vec<u64> = (0..c.size() as u64)
                        .map(|d| round * 100 + me * 10 + d)
                        .collect();
                    c.exchange_start(&send, &ones, &ones, &mut ex);
                    c.exchange_end(&mut ex, &mut recv, &mut counts);
                    let want: Vec<u64> = (0..c.size() as u64)
                        .map(|s| round * 100 + s * 10 + me)
                        .collect();
                    assert_eq!(recv, want, "round {round}");
                }
                let counters = c.fault_counters().unwrap();
                c.set_fault_plan(None);
                counters
            })
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a, b, "same seed must reproduce the same schedule");
        assert!(a.iter().all(|f| f.admitted == 12 * (p as u64 - 1)));
        assert!(a.iter().map(|f| f.delayed).sum::<u64>() > 0);
    }
}
