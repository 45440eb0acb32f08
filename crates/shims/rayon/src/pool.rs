//! The persistent work-stealing executor behind the shim.
//!
//! One [`Registry`] is a set of worker threads plus an injection queue of
//! active jobs. Workers are spawned lazily on the first parallel call and
//! then live for the registry's lifetime, parked on a condvar whenever the
//! queue is empty — steady-state parallel calls never touch the OS thread
//! API. Two job shapes cover the whole shim surface:
//!
//! * [`ForJob`] — a chunked index-space job. Every participating thread
//!   (the injecting caller included) claims grain-sized chunks from a
//!   shared atomic counter until the range is exhausted, so stragglers are
//!   load-balanced dynamically instead of being assigned a fixed share up
//!   front.
//! * [`JoinTask`] — the second branch of a [`join`]: a one-shot closure
//!   any idle worker may steal. If nobody stole it by the time the caller
//!   finishes the first branch, the caller reclaims and runs it inline;
//!   if it *was* stolen, the caller helps drain other queued jobs before
//!   parking (help-first stealing).
//!
//! Jobs reference closures on the injecting caller's stack. The safety
//! protocol making that sound: the caller never returns before the job is
//! *finished* (every claimed chunk fully executed), and once a job is
//! *exhausted* (all work claimed) the only fields any thread still touches
//! are its atomics — never the borrowed closure.
//!
//! Panics in user code are caught on the executing thread, stashed in the
//! job, and re-thrown from the caller once the job completes, matching
//! real rayon's "propagate to the caller" semantics. A worker that caught
//! a panic stays alive and keeps serving jobs.

use crate::metrics;
use std::any::Any;
use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Once, OnceLock};

/// Machine parallelism, resolved once. `std::thread::available_parallelism`
/// re-reads cgroup limits on every call (tens of microseconds inside a
/// container) — caching it keeps hot-path thread-count reads at
/// nanoseconds.
pub(crate) fn machine_parallelism() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| std::thread::available_parallelism().map_or(1, |x| x.get()))
}

/// `RAYON_NUM_THREADS` override for the global pool, parsed once.
/// Zero, negative, or unparsable values fall back to the machine size,
/// matching real rayon.
fn env_num_threads() -> Option<usize> {
    std::env::var("RAYON_NUM_THREADS")
        .ok()?
        .trim()
        .parse::<usize>()
        .ok()
        .filter(|&t| t > 0)
}

/// Thread count the global pool (and unset builders) resolve to.
pub(crate) fn default_pool_size() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| env_num_threads().unwrap_or_else(machine_parallelism))
}

/// A job the pool can execute cooperatively.
pub(crate) trait PoolJob: Send + Sync {
    /// Participate in the job: claim and run work until none is claimable.
    fn run(&self);
    /// All work has been claimed (not necessarily finished); the job can
    /// leave the queue.
    fn exhausted(&self) -> bool;
}

struct QueueState {
    /// Active jobs that may still have claimable work.
    jobs: Vec<Arc<dyn PoolJob>>,
    /// Workers exit when this is set and the queue is drained.
    terminate: bool,
}

/// A persistent pool: `size - 1` lazily-spawned workers plus the calling
/// thread, sharing an injection queue.
pub(crate) struct Registry {
    /// Total participants (workers + the injecting caller).
    pub(crate) size: usize,
    state: Mutex<QueueState>,
    work_cv: Condvar,
    started: Once,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Registry {
    pub(crate) fn new(size: usize) -> Arc<Registry> {
        Arc::new(Registry {
            size: size.max(1),
            state: Mutex::new(QueueState {
                jobs: Vec::new(),
                terminate: false,
            }),
            work_cv: Condvar::new(),
            started: Once::new(),
            workers: Mutex::new(Vec::new()),
        })
    }

    /// Spawn the workers on first use. Idempotent and cheap afterwards.
    fn ensure_started(self: &Arc<Self>) {
        self.started.call_once(|| {
            let mut handles = Vec::with_capacity(self.size.saturating_sub(1));
            for i in 0..self.size.saturating_sub(1) {
                let reg = Arc::clone(self);
                let h = std::thread::Builder::new()
                    .name(format!("rc-rayon-{i}"))
                    .spawn(move || worker_loop(reg))
                    .expect("rayon shim: failed to spawn pool worker");
                handles.push(h);
            }
            *self.workers.lock().unwrap_or_else(|e| e.into_inner()) = handles;
        });
    }

    /// Enqueue a job and wake the workers.
    fn inject(self: &Arc<Self>, job: Arc<dyn PoolJob>) {
        self.ensure_started();
        metrics::bump(&metrics::JOBS_PUBLISHED);
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        s.jobs.push(job);
        drop(s);
        self.work_cv.notify_all();
    }

    /// Drop a finished job from the queue (workers also prune exhausted
    /// jobs opportunistically; this keeps the queue from holding the last
    /// `Arc` past the caller's stack frame).
    fn remove(&self, job: &Arc<dyn PoolJob>) {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        s.jobs.retain(|j| !Arc::ptr_eq(j, job));
    }

    /// Claim some job with outstanding work, for help-first stealing.
    fn try_claim(&self) -> Option<Arc<dyn PoolJob>> {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        s.jobs.retain(|j| !j.exhausted());
        s.jobs.last().cloned()
    }

    /// Tell the workers to exit once the queue drains, and join them.
    /// Called from [`crate::ThreadPool::drop`]; the global registry is
    /// never terminated.
    pub(crate) fn terminate_and_join(&self) {
        {
            let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
            s.terminate = true;
        }
        self.work_cv.notify_all();
        let handles = std::mem::take(&mut *self.workers.lock().unwrap_or_else(|e| e.into_inner()));
        for h in handles {
            let _ = h.join();
        }
    }
}

/// Worker body: take the newest job with claimable work, participate until
/// it is exhausted, repeat; park on the condvar when the queue is empty.
fn worker_loop(reg: Arc<Registry>) {
    CURRENT_REGISTRY.with(|c| *c.borrow_mut() = Some(Arc::clone(&reg)));
    let mut s = reg.state.lock().unwrap_or_else(|e| e.into_inner());
    loop {
        s.jobs.retain(|j| !j.exhausted());
        if let Some(job) = s.jobs.last().cloned() {
            drop(s);
            job.run();
            s = reg.state.lock().unwrap_or_else(|e| e.into_inner());
            continue;
        }
        if s.terminate {
            return;
        }
        metrics::bump(&metrics::PARKS);
        s = reg.work_cv.wait(s).unwrap_or_else(|e| e.into_inner());
        metrics::bump(&metrics::UNPARKS);
    }
}

fn global_registry() -> &'static Arc<Registry> {
    static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
    GLOBAL.get_or_init(|| Registry::new(default_pool_size()))
}

thread_local! {
    /// The registry parallel calls on this thread route to: the worker's
    /// own pool on pool threads, the innermost [`crate::ThreadPool::install`]
    /// pool inside `install`, else the global pool.
    static CURRENT_REGISTRY: RefCell<Option<Arc<Registry>>> = const { RefCell::new(None) };
}

pub(crate) fn current_registry() -> Arc<Registry> {
    CURRENT_REGISTRY
        .with(|c| c.borrow().clone())
        .unwrap_or_else(|| Arc::clone(global_registry()))
}

/// Number of threads parallel operations started on this thread may use.
pub fn current_num_threads() -> usize {
    CURRENT_REGISTRY
        .with(|c| c.borrow().as_ref().map(|r| r.size))
        .unwrap_or_else(|| global_registry().size)
}

/// Install `reg` as this thread's current registry for the duration of the
/// returned guard (restores the previous registry on drop, also on panic).
pub(crate) struct RegistryGuard {
    prev: Option<Arc<Registry>>,
}

pub(crate) fn install_registry(reg: Arc<Registry>) -> RegistryGuard {
    RegistryGuard {
        prev: CURRENT_REGISTRY.with(|c| c.replace(Some(reg))),
    }
}

impl Drop for RegistryGuard {
    fn drop(&mut self) {
        CURRENT_REGISTRY.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

/// Stash `p` as the job's panic payload if it is the first one.
fn store_panic(slot: &Mutex<Option<Box<dyn Any + Send>>>, p: Box<dyn Any + Send>) {
    let mut g = slot.lock().unwrap_or_else(|e| e.into_inner());
    g.get_or_insert(p);
}

// ---------------------------------------------------------------------------
// Chunked parallel-for jobs
// ---------------------------------------------------------------------------

/// A chunked index-space job: threads claim `[c*grain, (c+1)*grain)` ranges
/// via `next` until all `nchunks` are taken; `completed` counts chunks that
/// finished executing.
struct ForJob {
    /// Points into the injecting caller's stack; see the module-level
    /// safety protocol. A raw pointer (not a transmuted `&'static`) so
    /// that a worker still holding the `Arc` after the caller returns
    /// holds a dead *pointer*, never a dangling *reference* — it is only
    /// dereferenced under a successful chunk claim, which implies the
    /// caller is still blocked in [`run_chunked_grain`].
    body: *const (dyn Fn(usize, usize) + Sync),
    n: usize,
    grain: usize,
    nchunks: usize,
    next: AtomicUsize,
    completed: AtomicUsize,
    finished: Mutex<bool>,
    done_cv: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: `body` points into the injecting caller's stack frame, which
// outlives every dereference (chunk claims only succeed while the caller
// blocks in `run_chunked_grain`); the closure itself is `Sync`.
unsafe impl Send for ForJob {}
unsafe impl Sync for ForJob {}

impl PoolJob for ForJob {
    fn run(&self) {
        loop {
            let c = self.next.fetch_add(1, Ordering::Relaxed);
            if c >= self.nchunks {
                return;
            }
            metrics::bump(&metrics::CHUNKS_CLAIMED);
            let lo = c * self.grain;
            let hi = (lo + self.grain).min(self.n);
            // SAFETY: the claim above succeeded, so the caller is still
            // blocked and the closure is alive.
            let body = unsafe { &*self.body };
            if let Err(p) = catch_unwind(AssertUnwindSafe(|| body(lo, hi))) {
                store_panic(&self.panic, p);
            }
            // AcqRel chain through `completed`: the thread observing the
            // final increment sees every chunk's writes.
            let done = self.completed.fetch_add(1, Ordering::AcqRel) + 1;
            if done == self.nchunks {
                let mut fin = self.finished.lock().unwrap_or_else(|e| e.into_inner());
                *fin = true;
                self.done_cv.notify_all();
            }
        }
    }

    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.nchunks
    }
}

impl ForJob {
    /// Block until every claimed chunk has finished executing.
    fn wait(&self) {
        let mut fin = self.finished.lock().unwrap_or_else(|e| e.into_inner());
        while !*fin {
            fin = self.done_cv.wait(fin).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Run `body(lo, hi)` over `0..n` in grain-sized chunks claimed dynamically
/// by the current pool. A range that fits one grain (every range on a
/// one-thread pool, under [`default_grain`]) runs inline with no job.
/// Panics in `body` propagate to the caller after all claimed chunks
/// finish.
pub(crate) fn run_chunked_grain<F: Fn(usize, usize) + Sync>(n: usize, grain: usize, body: F) {
    if n == 0 {
        return;
    }
    let grain = grain.max(1);
    if n <= grain {
        body(0, n);
        return;
    }
    let reg = current_registry();
    let bodyref: &(dyn Fn(usize, usize) + Sync) = &body;
    // SAFETY: pure lifetime erasure into a raw pointer; this frame does not
    // return until the job is finished and removed from the queue — see the
    // module-level protocol.
    let bodyref: *const (dyn Fn(usize, usize) + Sync) = unsafe { std::mem::transmute(bodyref) };
    let job = Arc::new(ForJob {
        body: bodyref,
        n,
        grain,
        nchunks: n.div_ceil(grain),
        next: AtomicUsize::new(0),
        completed: AtomicUsize::new(0),
        finished: Mutex::new(false),
        done_cv: Condvar::new(),
        panic: Mutex::new(None),
    });
    let dyn_job: Arc<dyn PoolJob> = job.clone();
    reg.inject(Arc::clone(&dyn_job));
    job.run(); // participate
    job.wait(); // stragglers
    reg.remove(&dyn_job);
    let p = job.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
    if let Some(p) = p {
        resume_unwind(p);
    }
}

/// Parallel loops over at most this many elements run inline on the
/// caller. Below it, publishing a job and waking a worker costs more than
/// the loop; picked from a sweep of {32, ..., 1024} over the repository
/// benchmark's `msf_stream` and `query_batches` workloads.
pub const SEQUENTIAL_FLOOR: usize = 128;

/// The workspace's one grain policy: the chunk size for a parallel loop
/// over `n` elements. `n` itself (one chunk, run inline with no pool job)
/// on a one-thread pool or when `n <= SEQUENTIAL_FLOOR`; otherwise about
/// eight chunks per thread, so dynamic claiming can rebalance stragglers
/// without paying a counter round-trip per element.
pub(crate) fn default_grain(n: usize) -> usize {
    let threads = current_num_threads();
    if threads <= 1 || n <= SEQUENTIAL_FLOOR {
        return n.max(1);
    }
    (n / (threads * 8)).max(1)
}

// ---------------------------------------------------------------------------
// join
// ---------------------------------------------------------------------------

/// Stack slots a [`JoinTask`] operates on: the second branch's closure and
/// its result.
struct JoinData<B, RB> {
    f: std::cell::UnsafeCell<Option<B>>,
    r: std::cell::UnsafeCell<Option<RB>>,
}

/// The stealable second branch of a [`join`]: a one-shot closure on the
/// caller's stack, reached through a type-erased pointer.
struct JoinTask {
    data: *const (),
    exec: unsafe fn(*const ()),
    taken: AtomicBool,
    finished: Mutex<bool>,
    done_cv: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: `data` points into the injecting caller's stack frame, which
// outlives the task (the caller blocks until `finished`); `taken` makes the
// closure's execution unique.
unsafe impl Send for JoinTask {}
unsafe impl Sync for JoinTask {}

impl PoolJob for JoinTask {
    fn run(&self) {
        if self.taken.swap(true, Ordering::AcqRel) {
            return;
        }
        metrics::bump(&metrics::JOIN_TASKS_STOLEN);
        self.execute();
    }

    fn exhausted(&self) -> bool {
        self.taken.load(Ordering::Acquire)
    }
}

impl JoinTask {
    /// Run the closure (caller must hold the `taken` claim).
    fn execute(&self) {
        if let Err(p) = catch_unwind(AssertUnwindSafe(|| unsafe { (self.exec)(self.data) })) {
            store_panic(&self.panic, p);
        }
        let mut fin = self.finished.lock().unwrap_or_else(|e| e.into_inner());
        *fin = true;
        self.done_cv.notify_all();
    }

    /// Wait for a stolen task to finish, helping with other queued jobs
    /// instead of parking while any are available (help-first stealing).
    fn wait_done(&self, reg: &Registry) {
        loop {
            if *self.finished.lock().unwrap_or_else(|e| e.into_inner()) {
                return;
            }
            match reg.try_claim() {
                Some(job) => job.run(),
                None => {
                    let mut fin = self.finished.lock().unwrap_or_else(|e| e.into_inner());
                    while !*fin {
                        fin = self.done_cv.wait(fin).unwrap_or_else(|e| e.into_inner());
                    }
                    return;
                }
            }
        }
    }
}

/// Run `oper_a` and `oper_b`, potentially in parallel, returning both
/// results. `oper_b` is published to the pool while the caller runs
/// `oper_a`; if no worker stole it, the caller reclaims it and runs it
/// inline. Panics propagate to the caller — if both branches panic, the
/// first branch's payload wins (matching rayon).
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let reg = current_registry();
    if reg.size <= 1 {
        let ra = oper_a();
        let rb = oper_b();
        return (ra, rb);
    }

    let data = JoinData {
        f: std::cell::UnsafeCell::new(Some(oper_b)),
        r: std::cell::UnsafeCell::new(None),
    };

    /// Monomorphized trampoline recovering the concrete closure type.
    ///
    /// # Safety
    /// `p` must point to a live `JoinData<B, RB>` and be called at most
    /// once (enforced by `taken`).
    unsafe fn call_b<B: FnOnce() -> RB, RB>(p: *const ()) {
        let d = unsafe { &*(p as *const JoinData<B, RB>) };
        let f = unsafe { (*d.f.get()).take().expect("join task executed twice") };
        let out = f();
        unsafe { *d.r.get() = Some(out) };
    }

    let task = Arc::new(JoinTask {
        data: &data as *const JoinData<B, RB> as *const (),
        exec: call_b::<B, RB>,
        taken: AtomicBool::new(false),
        finished: Mutex::new(false),
        done_cv: Condvar::new(),
        panic: Mutex::new(None),
    });
    let dyn_task: Arc<dyn PoolJob> = task.clone();
    reg.inject(Arc::clone(&dyn_task));

    let ra = catch_unwind(AssertUnwindSafe(oper_a));

    if !task.taken.swap(true, Ordering::AcqRel) {
        // Nobody stole b: run it inline on this thread.
        metrics::bump(&metrics::JOIN_TASKS_RECLAIMED);
        task.execute();
    } else {
        task.wait_done(&reg);
    }
    reg.remove(&dyn_task);

    match ra {
        Err(p) => resume_unwind(p),
        Ok(ra) => {
            let p = task.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
            if let Some(p) = p {
                resume_unwind(p);
            }
            // SAFETY: the task is finished; the result slot is no longer
            // written by any thread, and `finished`'s mutex ordered the
            // stealer's write before this read.
            let rb = unsafe { (*data.r.get()).take() }.expect("join: branch produced no result");
            (ra, rb)
        }
    }
}
