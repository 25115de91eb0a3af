//! The deterministic scheduler: DFS over thread interleavings.
//!
//! One model *execution* runs the closure under test with every shimmed
//! operation (atomic access, mutex lock/unlock, park/unpark, spawn/join)
//! turned into a *schedule point*: the acting thread pauses, the driver
//! picks which runnable thread proceeds, and exactly one model thread is
//! ever running. The sequence of choices is recorded as a trace of
//! [`Frame`]s; after each execution the driver backtracks depth-first to
//! the deepest frame with an untried alternative (within the preemption
//! bound) and replays the prefix. Model threads are real OS threads —
//! sequentialised by a condvar baton — so thread-locals (e.g. the parker's
//! per-thread slot) behave exactly as in production.
//!
//! Soundness notes (see the crate docs for the full list of limitations):
//! interleavings are explored under sequential consistency, spurious
//! wakeups and CAS failures are not injected, and state-hash pruning
//! assumes model threads are deterministic functions of the schedule.

use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard as StdMutexGuard, Once, Weak};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Operation tags folded into each thread's rolling history hash.

pub(crate) const OP_LOAD: u8 = 1;
pub(crate) const OP_STORE: u8 = 2;
pub(crate) const OP_RMW: u8 = 3;
pub(crate) const OP_CAS_OK: u8 = 4;
pub(crate) const OP_CAS_FAIL: u8 = 5;
pub(crate) const OP_MUTEX_LOCK: u8 = 6;
pub(crate) const OP_MUTEX_UNLOCK: u8 = 7;
pub(crate) const OP_PARK: u8 = 8;
pub(crate) const OP_UNPARK: u8 = 9;
pub(crate) const OP_SPAWN: u8 = 10;
pub(crate) const OP_JOIN: u8 = 11;
pub(crate) const OP_CV_WAIT: u8 = 12;
pub(crate) const OP_CV_NOTIFY: u8 = 13;

// ---------------------------------------------------------------------------
// Hash mixing (splitmix64): cheap, stateless, good avalanche.

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn mix(h: u64, v: u64) -> u64 {
    splitmix(h ^ splitmix(v))
}

// ---------------------------------------------------------------------------
// Per-thread and global model state.

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    /// Paused at a schedule point; eligible to be chosen.
    Ready,
    /// The single thread currently executing.
    Running,
    /// Waiting for a shim mutex (by cell id).
    BlockedMutex(u32),
    /// Waiting on a shim condvar (by cell id).
    BlockedCondvar(u32),
    /// Parked; `deadline_ns` is a logical-clock expiry, if any.
    BlockedPark {
        deadline_ns: Option<u64>,
    },
    /// Joining another model thread.
    BlockedJoin(usize),
    Finished,
}

struct Slot {
    status: Status,
    /// Pending `unpark` permit (token delivered before the park).
    permit: bool,
    /// Rolling hash of every visible operation this thread performed.
    history: u64,
}

struct CellInfo {
    /// Execution-stable identifier: allocation addresses differ between
    /// executions, so hashing uses first-touch order instead.
    id: u32,
    /// Last value written (atomics) or lock state (mutexes).
    value: u64,
}

/// One scheduling decision. `order` lists the candidate threads in the
/// sequence DFS will try them (current-thread-first, then by id); `cur`
/// indexes the choice taken on the execution currently being explored.
struct Frame {
    order: Vec<usize>,
    cur: usize,
    prev: Option<usize>,
    /// Whether `prev` was still runnable at this decision — switching away
    /// from a runnable thread is what costs a preemption.
    prev_enabled: bool,
    preempts_before: u32,
    /// No alternatives will be explored here (single candidate, or the
    /// global state hash was already visited with at least as much
    /// remaining preemption budget).
    no_branch: bool,
}

impl Frame {
    fn chosen(&self) -> usize {
        self.order[self.cur]
    }
}

/// Why a model run failed, with the schedule that reproduces it.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Dot-separated thread ids, one per schedule point — feed it back to
    /// [`Builder::replay`] to re-run exactly this interleaving.
    pub schedule: String,
    pub message: String,
    pub kind: FailureKind,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// A model thread panicked (assertion failure).
    Panic,
    /// No thread was runnable and none had a timed park pending.
    Deadlock,
    /// The execution exceeded `max_depth` schedule points (livelock guard).
    DepthExceeded,
    /// A replayed prefix diverged — model code is nondeterministic.
    Nondeterminism,
}

struct Inner {
    slots: Vec<Slot>,
    running: Option<usize>,
    abort: bool,
    live: usize,
    clock_ns: u64,
    cells: HashMap<usize, CellInfo>,
    next_cell: u32,
    frames: Vec<Frame>,
    /// Frames below this index replay the forced DFS prefix.
    forced_len: usize,
    steps: usize,
    preempts: u32,
    max_depth: usize,
    failure: Option<Failure>,
    os_handles: Vec<std::thread::JoinHandle<()>>,
}

impl Inner {
    fn schedule_string(&self) -> String {
        let parts: Vec<String> = self.frames[..self.steps]
            .iter()
            .map(|f| f.chosen().to_string())
            .collect();
        parts.join(".")
    }

    fn cell_id(&mut self, addr: usize) -> u32 {
        let next = &mut self.next_cell;
        self.cells
            .entry(addr)
            .or_insert_with(|| {
                let id = *next;
                *next += 1;
                CellInfo { id, value: 0 }
            })
            .id
    }

    fn record_op(&mut self, tid: usize, op: u8, addr: usize, value: u64) {
        let id = self.cell_id(addr);
        self.cells.get_mut(&addr).expect("cell registered").value = value;
        let slot = &mut self.slots[tid];
        slot.history = mix(slot.history, mix(op as u64, mix(id as u64, value)));
    }

    fn enabled(&self) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.status == Status::Ready)
            .map(|(i, _)| i)
            .collect()
    }

    fn any_timed_park(&self) -> bool {
        self.slots.iter().any(|s| {
            matches!(
                s.status,
                Status::BlockedPark {
                    deadline_ns: Some(_)
                }
            )
        })
    }

    fn state_hash(&self) -> u64 {
        let mut h = 0u64;
        for (i, s) in self.slots.iter().enumerate() {
            let status_word = match s.status {
                Status::Ready => 1,
                Status::Running => 2,
                Status::BlockedMutex(id) => 3 | ((id as u64) << 8),
                Status::BlockedCondvar(id) => 4 | ((id as u64) << 8),
                Status::BlockedPark { deadline_ns: None } => 5,
                Status::BlockedPark {
                    deadline_ns: Some(_),
                } => 6,
                Status::BlockedJoin(t) => 7 | ((t as u64) << 8),
                Status::Finished => 8,
            };
            h = mix(
                h,
                mix(
                    i as u64,
                    mix(status_word, s.history ^ ((s.permit as u64) << 63)),
                ),
            );
        }
        // Cells fold commutatively (XOR of per-cell hashes) so HashMap
        // iteration order cannot leak into the hash.
        let mut acc = 0u64;
        for info in self.cells.values() {
            acc ^= splitmix(mix(info.id as u64, info.value));
        }
        mix(h, acc)
    }

    fn fail(&mut self, kind: FailureKind, message: String) {
        if self.failure.is_none() {
            self.failure = Some(Failure {
                schedule: self.schedule_string(),
                message,
                kind,
            });
        }
    }
}

pub(crate) struct Controller {
    inner: StdMutex<Inner>,
    cv: Condvar,
}

impl Controller {
    fn lock(&self) -> StdMutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Unwind payload used to tear down model threads after a failure. Caught
/// by the thread wrapper; never escapes the checker.
struct AbortExecution;

// ---------------------------------------------------------------------------
// Thread-side context (TLS).

#[derive(Clone)]
pub(crate) struct Ctx {
    ctrl: Arc<Controller>,
    pub(crate) tid: usize,
}

thread_local! {
    static CTX: std::cell::RefCell<Option<Ctx>> = const { std::cell::RefCell::new(None) };
}

/// The active model context of the calling thread, if any. `None` means
/// every shim primitive degrades to its `std` passthrough.
pub(crate) fn ctx() -> Option<Ctx> {
    CTX.with(|c| c.borrow().clone())
}

/// True iff the calling thread is executing inside a model.
pub fn in_model() -> bool {
    CTX.with(|c| c.borrow().is_some())
}

impl Ctx {
    /// Pause at a schedule point: record a decision and wait until the
    /// driver selects this thread again. The fast path — no other thread
    /// is runnable and the forced prefix is exhausted — records the
    /// trivial decision without waking the driver.
    pub(crate) fn yield_point(&self) {
        if std::thread::panicking() {
            // Unwinding (failure teardown): scheduling discipline is over;
            // drop handlers just run their cleanup directly.
            return;
        }
        let mut g = self.ctrl.lock();
        if g.abort {
            drop(g);
            panic::resume_unwind(Box::new(AbortExecution));
        }
        debug_assert_eq!(g.running, Some(self.tid), "yield from non-running thread");
        let others_ready = g
            .slots
            .iter()
            .enumerate()
            .any(|(i, s)| i != self.tid && s.status == Status::Ready);
        if !others_ready && g.steps >= g.forced_len && g.steps < g.max_depth {
            // Sole runnable thread: self-schedule, skip the driver round
            // trip. `prev == self` so this never costs a preemption.
            let prev = g.frames.last().map(|f| f.chosen());
            let preempts = g.preempts;
            g.frames.push(Frame {
                order: vec![self.tid],
                cur: 0,
                prev,
                prev_enabled: prev == Some(self.tid),
                preempts_before: preempts,
                no_branch: true,
            });
            g.steps += 1;
            return;
        }
        g.slots[self.tid].status = Status::Ready;
        g.running = None;
        self.ctrl.cv.notify_all();
        self.wait_selected(g);
    }

    /// Wait (on a guard already held) until the driver hands this thread
    /// the baton, or unwind if the execution is being aborted.
    fn wait_selected(&self, mut g: StdMutexGuard<'_, Inner>) {
        loop {
            if g.abort {
                drop(g);
                panic::resume_unwind(Box::new(AbortExecution));
            }
            if g.running == Some(self.tid) {
                return;
            }
            g = self.ctrl.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }

    pub(crate) fn record(&self, op: u8, addr: usize, value: u64) {
        let mut g = self.ctrl.lock();
        g.record_op(self.tid, op, addr, value);
    }

    /// Block until a shim mutex at `addr` is released. The caller retries
    /// its `try_lock` after this returns.
    pub(crate) fn block_mutex(&self, addr: usize) {
        let mut g = self.ctrl.lock();
        let id = g.cell_id(addr);
        g.slots[self.tid].status = Status::BlockedMutex(id);
        g.running = None;
        self.ctrl.cv.notify_all();
        self.wait_selected(g);
    }

    /// Make every thread blocked on the mutex at `addr` runnable again.
    pub(crate) fn ready_mutex_waiters(&self, addr: usize) {
        let mut g = self.ctrl.lock();
        let id = g.cell_id(addr);
        for s in g.slots.iter_mut() {
            if s.status == Status::BlockedMutex(id) {
                s.status = Status::Ready;
            }
        }
    }

    /// Atomically release the mutex at `mutex_addr` (the caller passes a
    /// closure that drops the real guard — nothing else), wake the mutex's
    /// waiters, and block on the condvar at `cv_addr`; returns once
    /// notified and selected. The caller then reacquires the mutex.
    pub(crate) fn condvar_wait(&self, cv_addr: usize, mutex_addr: usize, release: impl FnOnce()) {
        let mut g = self.ctrl.lock();
        let id = g.cell_id(cv_addr);
        let mid = g.cell_id(mutex_addr);
        release();
        for s in g.slots.iter_mut() {
            if s.status == Status::BlockedMutex(mid) {
                s.status = Status::Ready;
            }
        }
        g.slots[self.tid].status = Status::BlockedCondvar(id);
        g.running = None;
        self.ctrl.cv.notify_all();
        self.wait_selected(g);
    }

    pub(crate) fn condvar_notify(&self, cv_addr: usize, all: bool) {
        let mut g = self.ctrl.lock();
        let id = g.cell_id(cv_addr);
        for s in g.slots.iter_mut() {
            if s.status == Status::BlockedCondvar(id) {
                s.status = Status::Ready;
                if !all {
                    break;
                }
            }
        }
    }

    /// Park the calling thread (consuming a pending permit if one is
    /// banked). `deadline_ns` is on the model's logical clock.
    pub(crate) fn park(&self, deadline_ns: Option<u64>) {
        let mut g = self.ctrl.lock();
        if g.abort {
            drop(g);
            panic::resume_unwind(Box::new(AbortExecution));
        }
        if g.slots[self.tid].permit {
            g.slots[self.tid].permit = false;
            g.record_op(self.tid, OP_PARK, 0, 1);
            return;
        }
        g.record_op(self.tid, OP_PARK, 0, 0);
        g.slots[self.tid].status = Status::BlockedPark { deadline_ns };
        g.running = None;
        self.ctrl.cv.notify_all();
        self.wait_selected(g);
    }

    pub(crate) fn unpark(&self, target: usize) {
        self.yield_point();
        let mut g = self.ctrl.lock();
        g.record_op(self.tid, OP_UNPARK, 0, target as u64);
        match g.slots.get_mut(target).map(|s| &mut s.status) {
            Some(st @ Status::BlockedPark { .. }) => *st = Status::Ready,
            Some(Status::Finished) | None => {}
            _ => g.slots[target].permit = true,
        }
    }

    /// Register a new model thread; returns its id. The caller spawns the
    /// OS thread and hands its handle back via [`Ctx::adopt_os_handle`].
    pub(crate) fn register_thread(&self) -> usize {
        let mut g = self.ctrl.lock();
        let tid = g.slots.len();
        g.slots.push(Slot {
            status: Status::Ready,
            permit: false,
            history: 0,
        });
        g.live += 1;
        g.record_op(self.tid, OP_SPAWN, 0, tid as u64);
        tid
    }

    pub(crate) fn adopt_os_handle(&self, h: std::thread::JoinHandle<()>) {
        self.ctrl.lock().os_handles.push(h);
    }

    /// Block until model thread `target` finishes.
    pub(crate) fn join(&self, target: usize) {
        self.yield_point();
        let mut g = self.ctrl.lock();
        g.record_op(self.tid, OP_JOIN, 0, target as u64);
        if g.slots[target].status == Status::Finished {
            return;
        }
        g.slots[self.tid].status = Status::BlockedJoin(target);
        g.running = None;
        self.ctrl.cv.notify_all();
        self.wait_selected(g);
    }

    pub(crate) fn now_ns(&self) -> u64 {
        self.ctrl.lock().clock_ns
    }

    pub(crate) fn controller(&self) -> Weak<Controller> {
        Arc::downgrade(&self.ctrl)
    }

    /// Same as [`Ctx::unpark`] but addressed via a weak controller ref —
    /// used by `Thread` handles that may outlive the model.
    pub(crate) fn unpark_via(ctrl: &Weak<Controller>, target: usize) {
        if let Some(c) = ctrl.upgrade() {
            if let Some(cx) = ctx() {
                if Arc::ptr_eq(&cx.ctrl, &c) {
                    cx.unpark(target);
                    return;
                }
            }
            // Cross-model or non-model caller: deliver the permit without
            // scheduling (best-effort; stale handles are ignored).
            let mut g = c.lock();
            match g.slots.get_mut(target).map(|s| &mut s.status) {
                Some(st @ Status::BlockedPark { .. }) => *st = Status::Ready,
                Some(Status::Finished) | None => {}
                _ => g.slots[target].permit = true,
            }
            c.cv.notify_all();
        }
    }
}

// ---------------------------------------------------------------------------
// Thread wrapper.

fn run_model_thread<T: Send + 'static>(
    ctrl: Arc<Controller>,
    tid: usize,
    f: impl FnOnce() -> T,
    out: Arc<StdMutex<Option<T>>>,
) {
    let cx = Ctx {
        ctrl: Arc::clone(&ctrl),
        tid,
    };
    CTX.with(|c| *c.borrow_mut() = Some(cx.clone()));
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        // Birth: wait to be scheduled for the first time.
        let g = ctrl.lock();
        cx.wait_selected(g);
        f()
    }));
    CTX.with(|c| *c.borrow_mut() = None);
    let mut g = ctrl.lock();
    match result {
        Ok(v) => {
            *out.lock().unwrap_or_else(|e| e.into_inner()) = Some(v);
        }
        Err(payload) => {
            if !payload.is::<AbortExecution>() {
                let msg = payload_to_string(&payload);
                g.fail(FailureKind::Panic, format!("thread {tid} panicked: {msg}"));
            }
        }
    }
    g.slots[tid].status = Status::Finished;
    for s in g.slots.iter_mut() {
        if s.status == Status::BlockedJoin(tid) {
            s.status = Status::Ready;
        }
    }
    g.live -= 1;
    if g.running == Some(tid) {
        g.running = None;
    }
    drop(g);
    ctrl.cv.notify_all();
}

fn payload_to_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

pub(crate) fn spawn_model_thread<T: Send + 'static>(
    cx: &Ctx,
    f: impl FnOnce() -> T + Send + 'static,
) -> (usize, Arc<StdMutex<Option<T>>>) {
    cx.yield_point();
    let tid = cx.register_thread();
    let out = Arc::new(StdMutex::new(None));
    let ctrl = Arc::clone(&cx.ctrl);
    let out2 = Arc::clone(&out);
    let h = std::thread::Builder::new()
        .name(format!("sli-check-{tid}"))
        .spawn(move || run_model_thread(ctrl, tid, f, out2))
        .expect("spawn model thread");
    cx.adopt_os_handle(h);
    (tid, out)
}

// ---------------------------------------------------------------------------
// Builder / driver.

/// Serialises model runs process-wide: the parker's bucket array is a
/// process-global, so two concurrently exploring models would observe each
/// other.
static MODEL_LOCK: StdMutex<()> = StdMutex::new(());

/// Suppresses the default panic-hook spew for panics *inside* model
/// threads: those are caught, recorded with their schedule, and re-raised
/// (with context) on the driver thread.
fn install_quiet_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !in_model() {
                prev(info);
            }
        }));
    });
}

/// Configures and runs an exhaustive exploration.
#[derive(Clone, Debug)]
pub struct Builder {
    /// Maximum context switches away from a still-runnable thread per
    /// execution (CHESS-style preemption bounding). Defaults to the
    /// `SLI_CHECK_PREEMPTIONS` env var, else 2.
    pub preemption_bound: u32,
    /// Safety valve on the number of executions.
    pub max_executions: u64,
    /// Wall-clock safety valve.
    pub max_seconds: u64,
    /// Maximum schedule points per execution (livelock guard).
    pub max_depth: usize,
}

impl Default for Builder {
    fn default() -> Self {
        Self::new()
    }
}

impl Builder {
    pub fn new() -> Self {
        // A verifier bound, not an engine knob: CI raises it for the deep
        // sweep. sli-lint: allow(env)
        let bound = std::env::var("SLI_CHECK_PREEMPTIONS").map_or(2, |v| {
            v.trim()
                .parse()
                .unwrap_or_else(|_| panic!("SLI_CHECK_PREEMPTIONS={v:?} is not a number"))
        });
        Builder {
            preemption_bound: bound,
            max_executions: 1_000_000,
            max_seconds: 600,
            max_depth: 50_000,
        }
    }

    pub fn preemption_bound(mut self, bound: u32) -> Self {
        self.preemption_bound = bound;
        self
    }

    pub fn max_executions(mut self, n: u64) -> Self {
        self.max_executions = n;
        self
    }

    /// Explore every schedule of `f` within the preemption bound.
    pub fn check<F>(&self, f: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        self.run(f, Vec::new(), false)
    }

    /// Re-run exactly one execution following `schedule` (the string from
    /// a [`Failure`]); past the end of the prefix the default choice rule
    /// applies. Preemption bounding is disabled during replay.
    pub fn replay<F>(&self, f: F, schedule: &str) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        let frames: Vec<Frame> = schedule
            .split('.')
            .filter(|p| !p.is_empty())
            .map(|p| {
                let tid: usize = p.parse().expect("schedule element must be a thread id");
                Frame {
                    order: vec![tid],
                    cur: 0,
                    prev: None,
                    prev_enabled: false,
                    preempts_before: 0,
                    no_branch: true,
                }
            })
            .collect();
        self.run(f, frames, true)
    }

    fn run<F>(&self, f: F, mut frames: Vec<Frame>, single: bool) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        let _serial = MODEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        install_quiet_hook();
        let f = Arc::new(f);
        let bound = if single {
            u32::MAX
        } else {
            self.preemption_bound
        };
        let mut seen: HashMap<u64, u32> = HashMap::new();
        let mut report = Report {
            executions: 0,
            states: 0,
            pruned: 0,
            max_depth: 0,
            truncated: false,
            elapsed: Duration::ZERO,
            failure: None,
        };
        let started = Instant::now();
        loop {
            report.executions += 1;
            let ctrl = Arc::new(Controller {
                inner: StdMutex::new(Inner {
                    slots: vec![Slot {
                        status: Status::Ready,
                        permit: false,
                        history: 0,
                    }],
                    running: None,
                    abort: false,
                    live: 1,
                    clock_ns: 0,
                    cells: HashMap::new(),
                    next_cell: 0,
                    forced_len: frames.len(),
                    frames,
                    steps: 0,
                    preempts: 0,
                    max_depth: self.max_depth,
                    failure: None,
                    os_handles: Vec::new(),
                }),
                cv: Condvar::new(),
            });
            let body = Arc::clone(&f);
            let out = Arc::new(StdMutex::new(None::<()>));
            {
                let ctrl2 = Arc::clone(&ctrl);
                let out2 = Arc::clone(&out);
                let h = std::thread::Builder::new()
                    .name("sli-check-0".to_string())
                    .spawn(move || run_model_thread(ctrl2, 0, move || body(), out2))
                    .expect("spawn model main thread");
                ctrl.lock().os_handles.push(h);
            }
            let failure = drive(&ctrl, bound, &mut seen, &mut report);
            // Tear down this execution's OS threads before touching frames.
            let handles = std::mem::take(&mut ctrl.lock().os_handles);
            for h in handles {
                let _ = h.join();
            }
            frames = match Arc::try_unwrap(ctrl) {
                Ok(c) => {
                    c.inner
                        .into_inner()
                        .unwrap_or_else(|e| e.into_inner())
                        .frames
                }
                Err(c) => std::mem::take(&mut c.lock().frames),
            };
            report.states = seen.len() as u64;
            if let Some(fail) = failure {
                report.failure = Some(fail);
                break;
            }
            if single || !advance(&mut frames, bound) {
                break;
            }
            if report.executions >= self.max_executions
                || started.elapsed().as_secs() >= self.max_seconds
            {
                report.truncated = true;
                break;
            }
        }
        report.elapsed = started.elapsed();
        report
    }
}

/// Run one execution to completion; returns its failure, if any.
fn drive(
    ctrl: &Arc<Controller>,
    bound: u32,
    seen: &mut HashMap<u64, u32>,
    report: &mut Report,
) -> Option<Failure> {
    let mut g = ctrl.lock();
    loop {
        while g.running.is_some() {
            g = ctrl.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
        if g.failure.is_some() || g.abort {
            g.abort = true;
            ctrl.cv.notify_all();
            while g.live > 0 {
                g = ctrl.cv.wait(g).unwrap_or_else(|e| e.into_inner());
                ctrl.cv.notify_all();
            }
            report.max_depth = report.max_depth.max(g.steps);
            return g.failure.clone();
        }
        if g.live == 0 {
            report.max_depth = report.max_depth.max(g.steps);
            return None;
        }
        let enabled = g.enabled();
        if enabled.is_empty() {
            // Logical time only advances when nothing is runnable: wake the
            // earliest timed park (ties broken by lowest thread id).
            let mut next: Option<(u64, usize)> = None;
            for (i, s) in g.slots.iter().enumerate() {
                if let Status::BlockedPark {
                    deadline_ns: Some(d),
                } = s.status
                {
                    if next.is_none_or(|(nd, _)| d < nd) {
                        next = Some((d, i));
                    }
                }
            }
            if let Some((deadline, tid)) = next {
                g.clock_ns = g.clock_ns.max(deadline);
                g.slots[tid].status = Status::Ready;
                continue;
            }
            let blocked: Vec<String> = g
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.status != Status::Finished)
                .map(|(i, s)| format!("thread {i}: {:?}", s.status))
                .collect();
            g.fail(
                FailureKind::Deadlock,
                format!("deadlock: no runnable thread [{}]", blocked.join(", ")),
            );
            continue;
        }
        if g.steps >= g.max_depth {
            let msg = format!("execution exceeded {} schedule points", g.max_depth);
            g.fail(FailureKind::DepthExceeded, msg);
            continue;
        }
        let chosen = if g.steps < g.forced_len {
            let frame = &g.frames[g.steps];
            let c = frame.chosen();
            if !enabled.contains(&c) {
                let msg = format!(
                    "replay diverged at step {}: thread {c} not runnable (enabled: {:?})",
                    g.steps, enabled
                );
                g.fail(FailureKind::Nondeterminism, msg);
                continue;
            }
            let preempting = frame.prev_enabled && frame.prev != Some(c);
            if preempting {
                g.preempts += 1;
            }
            c
        } else {
            let prev = g.frames.last().map(|f| f.chosen());
            let prev_enabled = prev.is_some_and(|p| enabled.contains(&p));
            let default = if prev_enabled {
                prev.expect("prev_enabled implies prev")
            } else {
                enabled[0]
            };
            let mut order = vec![default];
            order.extend(enabled.iter().copied().filter(|&t| t != default));
            let mut no_branch = order.len() == 1;
            // State-hash pruning: skip alternatives at states already
            // explored with at least as much preemption budget left.
            // Disabled while any timed park is pending (the hash ignores
            // absolute deadlines, which would make collisions unsound).
            if !no_branch && !g.any_timed_park() {
                let h = g.state_hash();
                let remaining = bound.saturating_sub(g.preempts);
                match seen.entry(h) {
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        if *e.get() >= remaining {
                            no_branch = true;
                            report.pruned += 1;
                        } else {
                            e.insert(remaining);
                        }
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(remaining);
                    }
                }
            }
            let preempts = g.preempts;
            g.frames.push(Frame {
                order,
                cur: 0,
                prev,
                prev_enabled,
                preempts_before: preempts,
                no_branch,
            });
            default
        };
        g.steps += 1;
        g.slots[chosen].status = Status::Running;
        g.running = Some(chosen);
        ctrl.cv.notify_all();
    }
}

/// Depth-first backtrack: move the deepest frame with an in-budget untried
/// alternative to its next candidate; pop exhausted frames. Returns false
/// when the whole bounded schedule space has been explored.
fn advance(frames: &mut Vec<Frame>, bound: u32) -> bool {
    while let Some(f) = frames.last_mut() {
        if !f.no_branch {
            let mut next = f.cur + 1;
            while next < f.order.len() {
                let cand = f.order[next];
                let preempting = f.prev_enabled && f.prev != Some(cand);
                if f.preempts_before + u32::from(preempting) <= bound {
                    f.cur = next;
                    return true;
                }
                next += 1;
            }
        }
        frames.pop();
    }
    false
}

/// Outcome of an exploration.
#[derive(Clone, Debug)]
pub struct Report {
    /// Number of executions (distinct schedules) run.
    pub executions: u64,
    /// Distinct global states hashed at branch points.
    pub states: u64,
    /// Branch points suppressed by state-hash pruning.
    pub pruned: u64,
    /// Deepest execution, in schedule points.
    pub max_depth: usize,
    /// True if `max_executions`/`max_seconds` stopped exploration early.
    pub truncated: bool,
    pub elapsed: Duration,
    pub failure: Option<Failure>,
}

impl Report {
    /// Full bounded exploration finished without a failure.
    pub fn passed(&self) -> bool {
        self.failure.is_none() && !self.truncated
    }
}

/// Explore every schedule of `f` at the default preemption bound and panic
/// (with a replayable schedule) on the first failing interleaving.
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    let report = Builder::new().check(f);
    if let Some(fail) = &report.failure {
        panic!(
            "sli-check: model failed after {} execution(s) [{:?}]\n  {}\n  schedule: {}\n  \
             (replay with Builder::replay(f, \"{}\"))",
            report.executions, fail.kind, fail.message, fail.schedule, fail.schedule
        );
    }
    if report.truncated {
        panic!(
            "sli-check: exploration truncated after {} executions / {:?} — raise the budget \
             or shrink the model",
            report.executions, report.elapsed
        );
    }
}
