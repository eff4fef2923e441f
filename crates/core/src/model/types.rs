//! Job, message, and event types of the ROCC simulation.

use paradyn_des::SimTime;
use paradyn_workload::ProcessClass;
use std::collections::VecDeque;

/// Global application-process index.
pub type AppId = u32;

/// Daemon index.
pub type PdId = u32;

/// Token identifying an in-flight batch of samples. Its value depends
/// only on the allocating daemon's own batches, never on how other
/// daemons' events interleave (DESIGN.md §10). Two layouts share the
/// `u32`:
///
/// * **plain** — `pd << 12 | ctr`, where `ctr` is the low
///   [`TOKEN_CTR_BITS`] bits of the daemon's allocation sequence number.
///   Every token is plain while the daemon's live batches span fewer than
///   4,096 allocations.
/// * **extended** — `1 << 31 | epoch << 27 | pd << 12 | ctr`, issued once
///   the plain counter could come round onto a live batch. `epoch:ctr` are
///   the low 16 bits of the sequence number counted from the daemon's
///   extension base, a multiple of 4,096 fixed at its first extended
///   token, so the value depends only on the daemon's own history.
///
/// Live tokens are unique while each daemon's live batches span at most
/// [`MAX_LIVE_PER_PD`] allocations; [`TokenTable::can_alloc`] refuses
/// beyond that.
pub type Token = u32;

/// Low bits of a [`Token`] carrying the allocation counter.
pub const TOKEN_CTR_BITS: u32 = 12;

/// Mask of the counter bits of a [`Token`].
pub const TOKEN_CTR_MASK: u32 = (1 << TOKEN_CTR_BITS) - 1;

/// Bits of a [`Token`] naming the allocating daemon (bits 12..27).
pub const TOKEN_PD_BITS: u32 = 15;

/// Daemons the token layout can name; `SimConfig::validate` rejects more.
pub const MAX_PDS: usize = 1 << TOKEN_PD_BITS;

/// Flag bit of an extended [`Token`].
pub const TOKEN_EXT: u32 = 1 << 31;

/// Position of an extended token's epoch bits (bits 27..31).
const TOKEN_EPOCH_SHIFT: u32 = TOKEN_CTR_BITS + TOKEN_PD_BITS;

/// Sequence-number bits an extended token carries (epoch + counter).
const EXT_SEQ_BITS: u32 = 16;

/// Allocations a plain token's counter tells apart.
const PLAIN_SPAN: u64 = 1 << TOKEN_CTR_BITS;

/// Most allocations one daemon's live batches may span — and so the most
/// batches it may hold in flight: an extended token tells this many apart.
pub const MAX_LIVE_PER_PD: u64 = 1 << EXT_SEQ_BITS;

/// The daemon that allocated token `t`.
#[inline]
pub fn token_pd(t: Token) -> PdId {
    (t >> TOKEN_CTR_BITS) & (MAX_PDS as u32 - 1)
}

/// The low 16 sequence bits (`epoch:ctr`) of an extended token.
#[inline]
fn ext_seq(t: Token) -> u64 {
    ((((t >> TOKEN_EPOCH_SHIFT) & 0xF) << TOKEN_CTR_BITS) | (t & TOKEN_CTR_MASK)) as u64
}

/// One daemon's live batches in allocation order: slot `i` holds
/// allocation `front + i` (`None` once consumed). Consumed slots at the
/// front are popped, so `front` is the oldest live allocation.
#[derive(Default)]
struct Lane {
    win: VecDeque<Option<Batch>>,
    /// Sequence number of `win[0]`.
    front: u64,
    /// Sequence number of the daemon's next allocation.
    next: u64,
    /// Origin of the extended numbering, set at the first extended token.
    base: Option<u64>,
}

impl Lane {
    /// Allocations made since the oldest live batch's, that one
    /// included; 0 when none is live.
    fn span(&self) -> u64 {
        if self.win.is_empty() {
            0
        } else {
            self.next.wrapping_sub(self.front)
        }
    }

    /// Window slot of live token `t`. A plain token's allocation lies
    /// within 4,096 of the oldest live one, an extended token's within
    /// 65,536.
    fn slot(&self, t: Token) -> Option<usize> {
        let off = if t & TOKEN_EXT == 0 {
            let ctr = (t & TOKEN_CTR_MASK) as u64;
            ctr.wrapping_sub(self.front) & (PLAIN_SPAN - 1)
        } else {
            let rel = self.front.wrapping_sub(self.base?);
            ext_seq(t).wrapping_sub(rel) & (MAX_LIVE_PER_PD - 1)
        };
        let i = off as usize;
        self.win.get(i)?.as_ref().map(|_| i)
    }

    /// Store allocation `seq`, the daemon's newest, at the back of the
    /// window (after an empty slot for each consumed allocation between).
    fn place(&mut self, seq: u64, batch: Batch) {
        if self.win.is_empty() {
            self.front = seq;
        }
        let i = (seq - self.front) as usize;
        debug_assert!(i >= self.win.len(), "allocations arrive in sequence order");
        self.win.resize_with(i, || None);
        self.win.push_back(Some(batch));
    }

    /// Consume slot `i` and pop the consumed slots now at the front.
    fn take(&mut self, i: usize) -> Option<Batch> {
        let b = self.win.get_mut(i)?.take()?;
        while let Some(None) = self.win.front() {
            self.win.pop_front();
            self.front += 1;
        }
        Some(b)
    }
}

/// Arena of in-flight batches keyed by `(allocating daemon, allocation
/// sequence number)`. Each daemon has a window of its live batches in
/// allocation order, so `insert`, `get`, `get_mut` and `remove` are O(1)
/// whatever the number in flight, and iteration order — daemon index
/// major, allocation order minor — is deterministic.
#[derive(Default)]
pub struct TokenTable {
    lanes: Vec<Lane>,
    // lint:allow(snapshot-exempt): recomputed as the number of live slots while load rebuilds the lanes
    live: usize,
}

impl TokenTable {
    /// One lane per daemon, pre-sized for the steady-state handful of
    /// concurrently live batches each daemon keeps in flight.
    pub fn with_pds(pds: usize) -> TokenTable {
        TokenTable {
            lanes: (0..pds)
                .map(|_| Lane {
                    win: VecDeque::with_capacity(8),
                    ..Lane::default()
                })
                .collect(),
            live: 0,
        }
    }

    /// Number of daemon lanes (fixed by the configuration).
    pub fn pds(&self) -> usize {
        self.lanes.len()
    }

    /// Whether daemon `pd` may allocate: its live batches span fewer than
    /// [`MAX_LIVE_PER_PD`] allocations.
    #[inline]
    pub fn can_alloc(&self, pd: PdId) -> bool {
        self.lanes[pd as usize].span() < MAX_LIVE_PER_PD
    }

    /// Store a batch allocated by daemon `pd`, returning its token. The
    /// caller checks [`TokenTable::can_alloc`] first.
    pub fn insert(&mut self, pd: PdId, batch: Batch) -> Token {
        let lane = &mut self.lanes[pd as usize];
        let span = lane.span();
        debug_assert!(span < MAX_LIVE_PER_PD, "token window full");
        let seq = lane.next;
        lane.next += 1;
        let plain = (pd << TOKEN_CTR_BITS) | (seq & (PLAIN_SPAN - 1)) as u32;
        let t = if span < PLAIN_SPAN {
            plain
        } else {
            let base = *lane.base.get_or_insert(seq & !(PLAIN_SPAN - 1));
            let epoch = ((seq - base) >> TOKEN_CTR_BITS) as u32 & 0xF;
            TOKEN_EXT | (epoch << TOKEN_EPOCH_SHIFT) | plain
        };
        lane.place(seq, batch);
        self.live += 1;
        t
    }

    /// Shared access to a live batch (`None` if the token was consumed).
    #[inline]
    pub fn get(&self, t: Token) -> Option<&Batch> {
        let lane = self.lanes.get(token_pd(t) as usize)?;
        lane.win[lane.slot(t)?].as_ref()
    }

    /// Mutable access to a live batch.
    #[inline]
    pub fn get_mut(&mut self, t: Token) -> Option<&mut Batch> {
        let lane = self.lanes.get_mut(token_pd(t) as usize)?;
        let i = lane.slot(t)?;
        lane.win[i].as_mut()
    }

    /// Remove and return a live batch.
    #[inline]
    pub fn remove(&mut self, t: Token) -> Option<Batch> {
        let lane = self.lanes.get_mut(token_pd(t) as usize)?;
        let i = lane.slot(t)?;
        let b = lane.take(i)?;
        self.live -= 1;
        Some(b)
    }

    /// Number of live batches.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no batches are in flight.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterate over live batches (daemon-major, allocation order).
    pub fn values(&self) -> impl Iterator<Item = &Batch> {
        self.lanes.iter().flat_map(|l| l.win.iter().flatten())
    }
}

/// A CPU occupancy request queued at a node's CPU bank.
#[derive(Clone, Copy, Debug)]
pub struct CpuJob {
    /// Owning process class (for busy-time attribution).
    pub class: ProcessClass,
    /// What to do when the request completes.
    pub kind: CpuKind,
}

/// Continuations of CPU requests.
#[derive(Clone, Copy, Debug)]
pub enum CpuKind {
    /// An application computation burst.
    AppCompute {
        /// The computing application process.
        app: AppId,
    },
    /// Daemon work to collect and forward one batch.
    PdCollect {
        /// The daemon performing the cycle.
        pd: PdId,
        /// The batch being collected.
        token: Token,
    },
    /// Merge work for an en-route child message at a tree node.
    PdMerge {
        /// The merging node.
        node: u32,
        /// The message being merged.
        token: Token,
    },
    /// Main-process handling of one received message; latency is recorded
    /// when this completes (receipt at the central collection facility).
    MainRecv {
        /// The message being consumed.
        token: Token,
    },
    /// A PVM daemon burst (its network request follows).
    PvmdCpu {
        /// Node of the PVM daemon instance.
        node: u32,
    },
    /// An other-process burst (no continuation).
    OtherCpu,
}

/// Destination of a forwarded message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dest {
    /// An intermediate tree node's daemon.
    Node(u32),
    /// The main Paradyn process.
    Main,
}

/// A network occupancy request.
#[derive(Clone, Copy, Debug)]
pub enum NetJob {
    /// An application communication step.
    AppComm {
        /// The communicating application process.
        app: AppId,
    },
    /// A daemon forward (one hop).
    Forward {
        /// The in-flight batch.
        token: Token,
        /// Where this hop lands.
        dest: Dest,
    },
    /// PVM daemon network activity.
    PvmdNet {
        /// Node of the PVM daemon instance.
        node: u32,
    },
    /// Other-process network activity.
    OtherNet {
        /// Node of the other-process source.
        node: u32,
    },
}

impl NetJob {
    /// Process class for busy-time attribution.
    pub fn class(&self) -> ProcessClass {
        match self {
            NetJob::AppComm { .. } => ProcessClass::Application,
            NetJob::Forward { .. } => ProcessClass::ParadynDaemon,
            NetJob::PvmdNet { .. } => ProcessClass::PvmDaemon,
            NetJob::OtherNet { .. } => ProcessClass::Other,
        }
    }
}

/// The simulation's event alphabet.
#[derive(Clone, Copy, Debug)]
pub enum Ev {
    /// Kick-off event at time zero: starts application loops, sampling
    /// timers, and background sources.
    Init,
    /// A CPU slice ended on `(bank, cpu)`.
    Slice {
        /// CPU bank index.
        bank: u32,
        /// CPU index within the bank.
        cpu: u32,
    },
    /// The shared network/bus finished its current occupancy.
    NetDone,
    /// A network occupancy on a contention-free link ended; the payload
    /// arrives at its destination.
    Deliver(NetJob),
    /// An application process's sampling timer fired.
    Sample {
        /// The sampled application process.
        app: AppId,
    },
    /// The PVM daemon on `node` issues its next request pair.
    PvmdArrival {
        /// Node index.
        node: u32,
    },
    /// An other-process CPU request arrives on `node`.
    OtherCpuArrival {
        /// Node index.
        node: u32,
    },
    /// An other-process network request arrives on `node`.
    OtherNetArrival {
        /// Node index.
        node: u32,
    },
    /// A partial-batch flush timer fired for daemon `pd` (stale unless
    /// `gen` matches the daemon's current flush generation).
    FlushTimeout {
        /// The daemon.
        pd: PdId,
        /// Flush generation the timer was armed for.
        gen: u32,
    },
    /// Adaptive batch-regulation control tick for daemon `pd`.
    AdaptTick {
        /// The daemon.
        pd: PdId,
    },
    /// Injected fault: daemon `pd` crashes, losing its buffered samples.
    DaemonCrash {
        /// The crashing daemon.
        pd: PdId,
    },
    /// Daemon `pd` finishes restarting and resumes collection.
    DaemonRecover {
        /// The recovering daemon.
        pd: PdId,
    },
    /// Retry a forward whose previous attempt hit an injected link
    /// failure (fires after the exponential backoff).
    RetryForward {
        /// Daemon (or merge node) performing the hop.
        pd: PdId,
        /// The batch being forwarded.
        token: Token,
        /// Network occupancy demand of the hop (µs), reused across
        /// attempts so a retry costs no extra random draws.
        demand_us: f64,
    },
    /// Injected fault: the main process's host CPU absorbs a burst of
    /// competing work, stalling message consumption.
    MainStall,
    /// Degradation-controller recovery tick: an app with a throttled
    /// sampling rate attempts an additive-recovery step (and re-arms while
    /// its multiplier exceeds 1).
    ThrottleTick {
        /// The throttled application process.
        app: AppId,
    },
    /// A backpressure (`on`) or credit (`!on`) edge arriving at daemon `pd`
    /// from its parent in the forwarding tree, after signalling jitter.
    Backpressure {
        /// The receiving daemon.
        pd: PdId,
        /// Pressure rising (`true`) or clearing (`false`).
        on: bool,
    },
    /// The configured overload ramp fires: offered sampling load is
    /// multiplied by the ramp factor from this instant on.
    OverloadRamp,
}

impl Ev {
    /// Execution cell of the event: the node whose state its handler
    /// touches. Only meaningful on cell-keyed configurations
    /// ([`super::cell_keyed`]: per-node banks, node == daemon index).
    pub(crate) fn exec_cell(&self, apps_per_node: u32) -> u32 {
        match *self {
            Ev::Init | Ev::NetDone | Ev::MainStall | Ev::OverloadRamp => 0,
            Ev::Slice { bank, .. } => bank,
            Ev::Deliver(job) => match job {
                NetJob::AppComm { app } => app / apps_per_node,
                NetJob::Forward { dest, .. } => match dest {
                    Dest::Main => 0,
                    Dest::Node(n) => n,
                },
                NetJob::PvmdNet { node } | NetJob::OtherNet { node } => node,
            },
            Ev::Sample { app } | Ev::ThrottleTick { app } => app / apps_per_node,
            Ev::PvmdArrival { node }
            | Ev::OtherCpuArrival { node }
            | Ev::OtherNetArrival { node } => node,
            Ev::FlushTimeout { pd, .. }
            | Ev::AdaptTick { pd }
            | Ev::DaemonCrash { pd }
            | Ev::DaemonRecover { pd }
            | Ev::Backpressure { pd, .. }
            | Ev::RetryForward { pd, .. } => pd,
        }
    }
}

/// Payload of an in-flight batch of samples.
#[derive(Clone, Debug)]
pub struct Batch {
    /// Number of samples in the batch (merging preserves the count for
    /// latency accounting).
    pub count: u32,
    /// Sum of the samples' generation times (ns). The mean monitoring
    /// latency of the batch at receipt time `t` is
    /// `t − sum_gen/count`.
    pub sum_gen_ns: u64,
    /// When the batch was assembled by the daemon (ns). Latency measured
    /// from here excludes batch-accumulation time — the quantity the
    /// paper's NOW/SMP latency figures effectively plot (their model has
    /// batches *arriving* as units; see EXPERIMENTS.md).
    pub ready_ns: u64,
    /// Application processes whose pipe slots this batch still holds;
    /// drained (and writers unblocked) when the collect CPU work finishes.
    pub drain_apps: Vec<AppId>,
    /// Failed forward attempts on the current hop (injected link faults);
    /// reset to zero whenever a hop succeeds.
    pub attempts: u32,
}

impl Batch {
    /// Mean generation-to-receipt latency of the batch if received at
    /// `now`, in seconds (includes batch-accumulation time).
    pub fn mean_latency_s(&self, now: SimTime) -> f64 {
        debug_assert!(self.count > 0);
        let recv = now.as_nanos() as f64 * self.count as f64;
        (recv - self.sum_gen_ns as f64) / self.count as f64 / 1e9
    }

    /// Forwarding latency (batch-ready to receipt) at `now`, in seconds.
    pub fn forwarding_latency_s(&self, now: SimTime) -> f64 {
        (now.as_nanos() as f64 - self.ready_ns as f64) / 1e9
    }
}

/// Index of a process class in metric arrays.
#[inline]
pub fn class_idx(c: ProcessClass) -> usize {
    match c {
        ProcessClass::Application => 0,
        ProcessClass::ParadynDaemon => 1,
        ProcessClass::PvmDaemon => 2,
        ProcessClass::Other => 3,
        ProcessClass::MainParadyn => 4,
    }
}

/// Parent of node `i` in the binary forwarding tree (heap layout,
/// node 0 = root, which hosts the main process).
#[inline]
pub fn tree_parent(i: u32) -> u32 {
    debug_assert!(i > 0, "root has no parent");
    (i - 1) / 2
}

// ---------------------------------------------------------------------------
// Snapshot codec impls. `ProcessClass` is foreign to both this crate and the
// `Persist` trait's crate, so it is encoded inline as its `class_idx` byte.
// ---------------------------------------------------------------------------

use paradyn_des::{Dec, Enc, Persist, SnapError};

fn save_class(c: ProcessClass, w: &mut Enc) {
    w.put_u8(class_idx(c) as u8);
}

fn load_class(r: &mut Dec<'_>) -> Result<ProcessClass, SnapError> {
    let i = r.take_u8()? as usize;
    ProcessClass::ALL
        .into_iter()
        .find(|&c| class_idx(c) == i)
        .ok_or(SnapError::Malformed("unknown process class"))
}

impl Persist for Batch {
    fn save(&self, w: &mut Enc) {
        w.put_u32(self.count);
        w.put_u64(self.sum_gen_ns);
        w.put_u64(self.ready_ns);
        self.drain_apps.save(w);
        w.put_u32(self.attempts);
    }
    fn load(r: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(Batch {
            count: r.take_u32()?,
            sum_gen_ns: r.take_u64()?,
            ready_ns: r.take_u64()?,
            drain_apps: Persist::load(r)?,
            attempts: r.take_u32()?,
        })
    }
}

/// Snapshot flag on a lane's codes once the daemon has issued an extended
/// token: the code is then the 16-bit sequence number counted from the
/// extension base. Lanes without it keep the plain 12-bit counter, so a
/// table that never extended a token saves exactly the plain-counter
/// format.
const SNAP_EXT: u32 = 1 << 16;

impl Persist for TokenTable {
    fn save(&self, w: &mut Enc) {
        let code = |lane: &Lane, seq: u64| match lane.base {
            None => (seq & (PLAIN_SPAN - 1)) as u32,
            Some(base) => SNAP_EXT | (seq.wrapping_sub(base) & (MAX_LIVE_PER_PD - 1)) as u32,
        };
        w.put_u32(self.lanes.len() as u32);
        for lane in &self.lanes {
            w.put_u32(lane.win.iter().flatten().count() as u32);
            for (seq, b) in (lane.front..).zip(&lane.win) {
                if let Some(b) = b {
                    w.put_u32(code(lane, seq));
                    b.save(w);
                }
            }
        }
        for lane in &self.lanes {
            w.put_u32(code(lane, lane.next));
        }
    }
    fn load(r: &mut Dec<'_>) -> Result<Self, SnapError> {
        // Sequence numbers are rebuilt relative to an anchor: a multiple of
        // 2^16 far from zero, so counters and extended codes keep their
        // values and no reconstructed number underflows.
        const ANCHOR: u64 = 1 << 32;
        let pds = r.take_u32()? as usize;
        if pds > MAX_PDS {
            return Err(SnapError::Malformed("token table daemon count"));
        }
        let mut entries: Vec<Vec<(u32, Batch)>> = Vec::with_capacity(pds);
        for _ in 0..pds {
            let n = r.take_u32()? as usize;
            let mut v = Vec::with_capacity(n.min(MAX_LIVE_PER_PD as usize));
            for _ in 0..n {
                let c = r.take_u32()?;
                if c > TOKEN_CTR_MASK && c & !(MAX_LIVE_PER_PD as u32 - 1) != SNAP_EXT {
                    return Err(SnapError::Malformed("token counter out of range"));
                }
                v.push((c, Persist::load(r)?));
            }
            entries.push(v);
        }
        let mut lanes = Vec::with_capacity(pds);
        let mut live = 0usize;
        for v in entries {
            let nc = r.take_u32()?;
            let extended = nc & SNAP_EXT != 0;
            let (next, base) = if extended {
                if nc & !(MAX_LIVE_PER_PD as u32 - 1) != SNAP_EXT {
                    return Err(SnapError::Malformed("token table counter"));
                }
                (ANCHOR + (nc & !SNAP_EXT) as u64, Some(ANCHOR))
            } else if nc > TOKEN_CTR_MASK {
                return Err(SnapError::Malformed("token table counter"));
            } else {
                (0, None)
            };
            // Allocation order (strictly increasing sequence numbers within
            // one window) is part of the format: iteration order feeds
            // deterministic drains.
            live += v.len();
            let mut win = VecDeque::with_capacity(v.len().max(8));
            let mut front = 0u64;
            let mut last: Option<u64> = None;
            for (c, b) in v {
                if (c & SNAP_EXT != 0) != extended {
                    return Err(SnapError::Malformed("token table slot order"));
                }
                let seq = if extended {
                    // Entries precede `next` by 1..=2^16 allocations.
                    match nc.wrapping_sub(c) as u64 & (MAX_LIVE_PER_PD - 1) {
                        0 => next - MAX_LIVE_PER_PD,
                        back => next - back,
                    }
                } else {
                    match last {
                        None => ANCHOR + c as u64,
                        Some(_) => front + ((c as u64).wrapping_sub(front) & (PLAIN_SPAN - 1)),
                    }
                };
                if last.is_some_and(|l| seq <= l) {
                    return Err(SnapError::Malformed("token table slot order"));
                }
                if last.is_none() {
                    front = seq;
                }
                win.resize_with((seq - front) as usize, || None);
                win.push_back(Some(b));
                last = Some(seq);
            }
            let next = match (extended, last) {
                (true, _) => next,
                (false, None) => ANCHOR + nc as u64,
                (false, Some(l)) => {
                    let next = l + 1 + ((nc as u64).wrapping_sub(l + 1) & (PLAIN_SPAN - 1));
                    if next - front > PLAIN_SPAN {
                        return Err(SnapError::Malformed("token table counter"));
                    }
                    next
                }
            };
            if last.is_none() {
                front = next;
            }
            lanes.push(Lane {
                win,
                front,
                next,
                base,
            });
        }
        Ok(TokenTable { lanes, live })
    }
}

impl Persist for CpuKind {
    fn save(&self, w: &mut Enc) {
        match *self {
            CpuKind::AppCompute { app } => {
                w.put_u8(0);
                w.put_u32(app);
            }
            CpuKind::PdCollect { pd, token } => {
                w.put_u8(1);
                w.put_u32(pd);
                w.put_u32(token);
            }
            CpuKind::PdMerge { node, token } => {
                w.put_u8(2);
                w.put_u32(node);
                w.put_u32(token);
            }
            CpuKind::MainRecv { token } => {
                w.put_u8(3);
                w.put_u32(token);
            }
            CpuKind::PvmdCpu { node } => {
                w.put_u8(4);
                w.put_u32(node);
            }
            CpuKind::OtherCpu => w.put_u8(5),
        }
    }
    fn load(r: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(match r.take_u8()? {
            0 => CpuKind::AppCompute { app: r.take_u32()? },
            1 => CpuKind::PdCollect {
                pd: r.take_u32()?,
                token: r.take_u32()?,
            },
            2 => CpuKind::PdMerge {
                node: r.take_u32()?,
                token: r.take_u32()?,
            },
            3 => CpuKind::MainRecv { token: r.take_u32()? },
            4 => CpuKind::PvmdCpu { node: r.take_u32()? },
            5 => CpuKind::OtherCpu,
            _ => return Err(SnapError::Malformed("CpuKind tag")),
        })
    }
}

impl Persist for CpuJob {
    fn save(&self, w: &mut Enc) {
        save_class(self.class, w);
        self.kind.save(w);
    }
    fn load(r: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(CpuJob {
            class: load_class(r)?,
            kind: Persist::load(r)?,
        })
    }
}

impl Persist for Dest {
    fn save(&self, w: &mut Enc) {
        match *self {
            Dest::Node(n) => {
                w.put_u8(0);
                w.put_u32(n);
            }
            Dest::Main => w.put_u8(1),
        }
    }
    fn load(r: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(match r.take_u8()? {
            0 => Dest::Node(r.take_u32()?),
            1 => Dest::Main,
            _ => return Err(SnapError::Malformed("Dest tag")),
        })
    }
}

impl Persist for NetJob {
    fn save(&self, w: &mut Enc) {
        match *self {
            NetJob::AppComm { app } => {
                w.put_u8(0);
                w.put_u32(app);
            }
            NetJob::Forward { token, dest } => {
                w.put_u8(1);
                w.put_u32(token);
                dest.save(w);
            }
            NetJob::PvmdNet { node } => {
                w.put_u8(2);
                w.put_u32(node);
            }
            NetJob::OtherNet { node } => {
                w.put_u8(3);
                w.put_u32(node);
            }
        }
    }
    fn load(r: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(match r.take_u8()? {
            0 => NetJob::AppComm { app: r.take_u32()? },
            1 => NetJob::Forward {
                token: r.take_u32()?,
                dest: Persist::load(r)?,
            },
            2 => NetJob::PvmdNet { node: r.take_u32()? },
            3 => NetJob::OtherNet { node: r.take_u32()? },
            _ => return Err(SnapError::Malformed("NetJob tag")),
        })
    }
}

impl Persist for Ev {
    fn save(&self, w: &mut Enc) {
        match *self {
            Ev::Init => w.put_u8(0),
            Ev::Slice { bank, cpu } => {
                w.put_u8(1);
                w.put_u32(bank);
                w.put_u32(cpu);
            }
            Ev::NetDone => w.put_u8(2),
            Ev::Deliver(job) => {
                w.put_u8(3);
                job.save(w);
            }
            Ev::Sample { app } => {
                w.put_u8(4);
                w.put_u32(app);
            }
            Ev::PvmdArrival { node } => {
                w.put_u8(5);
                w.put_u32(node);
            }
            Ev::OtherCpuArrival { node } => {
                w.put_u8(6);
                w.put_u32(node);
            }
            Ev::OtherNetArrival { node } => {
                w.put_u8(7);
                w.put_u32(node);
            }
            Ev::FlushTimeout { pd, gen } => {
                w.put_u8(8);
                w.put_u32(pd);
                w.put_u32(gen);
            }
            Ev::AdaptTick { pd } => {
                w.put_u8(9);
                w.put_u32(pd);
            }
            Ev::DaemonCrash { pd } => {
                w.put_u8(10);
                w.put_u32(pd);
            }
            Ev::DaemonRecover { pd } => {
                w.put_u8(11);
                w.put_u32(pd);
            }
            Ev::RetryForward {
                pd,
                token,
                demand_us,
            } => {
                w.put_u8(12);
                w.put_u32(pd);
                w.put_u32(token);
                w.put_f64(demand_us);
            }
            Ev::MainStall => w.put_u8(13),
            Ev::ThrottleTick { app } => {
                w.put_u8(14);
                w.put_u32(app);
            }
            Ev::Backpressure { pd, on } => {
                w.put_u8(15);
                w.put_u32(pd);
                w.put_bool(on);
            }
            Ev::OverloadRamp => w.put_u8(16),
        }
    }
    fn load(r: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(match r.take_u8()? {
            0 => Ev::Init,
            1 => Ev::Slice {
                bank: r.take_u32()?,
                cpu: r.take_u32()?,
            },
            2 => Ev::NetDone,
            3 => Ev::Deliver(Persist::load(r)?),
            4 => Ev::Sample { app: r.take_u32()? },
            5 => Ev::PvmdArrival { node: r.take_u32()? },
            6 => Ev::OtherCpuArrival { node: r.take_u32()? },
            7 => Ev::OtherNetArrival { node: r.take_u32()? },
            8 => Ev::FlushTimeout {
                pd: r.take_u32()?,
                gen: r.take_u32()?,
            },
            9 => Ev::AdaptTick { pd: r.take_u32()? },
            10 => Ev::DaemonCrash { pd: r.take_u32()? },
            11 => Ev::DaemonRecover { pd: r.take_u32()? },
            12 => Ev::RetryForward {
                pd: r.take_u32()?,
                token: r.take_u32()?,
                demand_us: r.take_f64()?,
            },
            13 => Ev::MainStall,
            14 => Ev::ThrottleTick { app: r.take_u32()? },
            15 => Ev::Backpressure {
                pd: r.take_u32()?,
                on: r.take_bool()?,
            },
            16 => Ev::OverloadRamp,
            _ => return Err(SnapError::Malformed("Ev tag")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(count: u32) -> Batch {
        Batch {
            count,
            sum_gen_ns: 0,
            ready_ns: 0,
            drain_apps: vec![],
            attempts: 0,
        }
    }

    #[test]
    fn token_table_is_keyed_by_daemon_and_allocation() {
        let mut tab = TokenTable::with_pds(3);
        let a = tab.insert(1, batch(1));
        let b = tab.insert(1, batch(2));
        let c = tab.insert(0, batch(3));
        // Tokens are a pure function of (pd, per-pd allocation count).
        assert_eq!(a, (1 << TOKEN_CTR_BITS) | 0);
        assert_eq!(b, (1 << TOKEN_CTR_BITS) | 1);
        assert_eq!(c, 0);
        assert_eq!(tab.len(), 3);
        assert_eq!(tab.get(a).unwrap().count, 1);
        assert_eq!(tab.remove(a).unwrap().count, 1);
        assert!(tab.remove(a).is_none(), "double remove is a no-op");
        // Removing a batch does not perturb later token values.
        let d = tab.insert(1, batch(4));
        assert_eq!(d, (1 << TOKEN_CTR_BITS) | 2);
        tab.get_mut(b).unwrap().attempts = 7;
        assert_eq!(tab.get(b).unwrap().attempts, 7);
        // Iteration is pd-major, allocation order minor.
        let counts: Vec<u32> = tab.values().map(|x| x.count).collect();
        assert_eq!(counts, vec![3, 2, 4]);
        assert!(!tab.is_empty());
        tab.remove(b);
        tab.remove(c);
        tab.remove(d);
        assert!(tab.is_empty());
    }

    #[test]
    fn tree_parent_heap_layout() {
        assert_eq!(tree_parent(1), 0);
        assert_eq!(tree_parent(2), 0);
        assert_eq!(tree_parent(3), 1);
        assert_eq!(tree_parent(4), 1);
        assert_eq!(tree_parent(5), 2);
        assert_eq!(tree_parent(255), 127);
    }

    #[test]
    fn batch_latency_accounting() {
        // Two samples generated at 1s and 3s, received at 5s:
        // latencies 4s and 2s, mean 3s.
        let b = Batch {
            count: 2,
            sum_gen_ns: 4_000_000_000,
            ready_ns: 4_000_000_000,
            drain_apps: vec![],
            attempts: 0,
        };
        let lat = b.mean_latency_s(SimTime::from_secs_f64(5.0));
        assert!((lat - 3.0).abs() < 1e-9);
    }

    #[test]
    fn class_indices_are_distinct() {
        let mut seen = [false; 5];
        for c in ProcessClass::ALL {
            let i = class_idx(c);
            assert!(!seen[i]);
            seen[i] = true;
        }
    }

    #[test]
    fn net_job_classes() {
        assert_eq!(
            NetJob::AppComm { app: 0 }.class(),
            ProcessClass::Application
        );
        assert_eq!(
            NetJob::Forward {
                token: 0,
                dest: Dest::Main
            }
            .class(),
            ProcessClass::ParadynDaemon
        );
        assert_eq!(
            NetJob::PvmdNet { node: 0 }.class(),
            ProcessClass::PvmDaemon
        );
        assert_eq!(NetJob::OtherNet { node: 0 }.class(), ProcessClass::Other);
    }
}
