//! The workspace's parallel execution layer: one worker pool ([`ExecPool`])
//! shared by every fan-out in query execution.
//!
//! A query's parallelism lives in two places: across the shards of a
//! database, and across the row slices of a partitioned scan (the
//! sequential scan and the VA-file filter scan); a bitmap query evaluates
//! its predicates in a plain loop. One chunked map covers both without a
//! thread-pool dependency: [`ExecPool::try_map`] / [`ExecPool::map`] hand
//! chunks 1…n to the process's **parked workers**, threads started on first
//! use, grown to the largest `threads − 1` any call has asked for, never
//! shrunk, blocked on a condvar while idle. A warmed map starts no thread.
//! A thread that outlives the call cannot borrow the caller's data (the
//! workspace forbids `unsafe`), so the map takes owned, `'static` work:
//! callers move in `Arc`s of what the chunks read (shards, a scanned
//! dataset, a VA-file and its dataset).
//!
//! Guarantees, relied on by the engine layer and its conformance suite:
//!
//! * **Deterministic ordering** — the input is chunked into contiguous runs
//!   and chunk outputs are flattened in input order, so results are
//!   positionally identical to a sequential map.
//! * **Panic containment** — a panicking closure inside a `try_map`
//!   surfaces as [`Error::WorkerPanicked`] instead of aborting the process
//!   or the worker; sibling items already computed are discarded.
//!   [`contain`] gives one inline call the same treatment.
//! * **The caller works too** — it runs chunk 0, then takes back every
//!   chunk no worker has started, and only then waits (yielding its core
//!   for a few tens of µs before it sleeps). A slow wake-up degrades to
//!   inline work, and a map issued from inside a parked job cannot
//!   deadlock waiting for workers that are all busy.
//! * **Spans** — every chunk of a fanned-out map runs under a `pool.worker`
//!   span parented to the span that issued the map, whoever runs it, and
//!   is closed before the map returns.
//! * **Configurability** — the process-wide degree used by the engine's
//!   default entry points comes from [`configured_threads`]: an explicit
//!   [`set_threads`] call (the CLI's `--threads` flag) wins over the
//!   `IBIS_THREADS` environment variable (the CI matrix knob), which wins
//!   over [`default_threads`].
//! * **A priced degree** — a caller that can price its work in the
//!   planner's cost unit treats its degree as a ceiling and asks
//!   [`priced_degree`] for the degree that work pays for: a chunk split
//!   off must bring [`WAKES_PER_CHUNK`] cold wake-ups ([`WAKE_PRICE`]) of
//!   work. The shard fan-out does; the partitioned scans still take the
//!   degree they are given.

use crate::{Error, Result};
use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Process-wide thread-count override installed by [`set_threads`];
/// `0` means "not set" (fall through to `IBIS_THREADS` / auto-detect).
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Installs a process-wide parallelism degree (clamped to at least 1).
/// Used by the CLI `--threads` flag and the bench harness; takes precedence
/// over the `IBIS_THREADS` environment variable.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n.max(1), Ordering::Relaxed);
}

/// The parallelism degree the engine's default entry points use:
/// [`set_threads`] override, else `IBIS_THREADS` (if a positive integer),
/// else [`default_threads`]. The environment and the machine are read
/// once per process — this runs on every query — so only [`set_threads`]
/// changes the answer at run time.
pub fn configured_threads() -> usize {
    static AMBIENT: OnceLock<usize> = OnceLock::new();
    let forced = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    *AMBIENT.get_or_init(|| {
        std::env::var("IBIS_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(default_threads)
    })
}

/// A sensible default worker count: available parallelism, capped at 8
/// (both index builds and query scans are memory-bandwidth-bound well
/// before that).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(8))
}

/// What waking one parked worker costs the map that wakes it, in the
/// planner's cost unit (the plain kernel's time per 64-bit word, DESIGN.md
/// §8): a cold wake-up, from the job's push until a worker that sat parked
/// for a millisecond starts it. `figures fanout` measures it; this is the
/// quieter of two sittings on the 2-vCPU host (21–24 µs), the other read
/// several times more (DESIGN.md §9).
pub const WAKE_PRICE: f64 = 150_000.0;

/// How many wake-ups' worth of work each chunk split off a map must bring
/// (DESIGN.md §9): the stated multiple of [`WAKE_PRICE`] in
/// [`priced_degree`].
pub const WAKES_PER_CHUNK: f64 = 1.5;

/// The degree to run `work` at, at most `ceiling`, for work priced in the
/// planner's cost unit: the caller's chunk plus one more for every
/// [`WAKES_PER_CHUNK`] × [`WAKE_PRICE`] of it. Work under that runs at
/// degree 1, inline, waking nobody.
pub fn priced_degree(work: f64, ceiling: usize) -> usize {
    let chunks = work / (WAKES_PER_CHUNK * WAKE_PRICE);
    (chunks as usize).saturating_add(1).min(ceiling.max(1))
}

/// Splits `0..n` into at most `parts` contiguous, non-empty ranges covering
/// every index exactly once, in order. The unit of row-range partitioning:
/// each range is one worker's slice of a partitioned scan.
pub fn partition(n: usize, parts: usize) -> Vec<Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, n);
    let chunk = n.div_ceil(parts);
    (0..n)
        .step_by(chunk)
        .map(|start| start..(start + chunk).min(n))
        .collect()
}

thread_local! {
    /// Threads this thread has started through the pool.
    static STARTED_HERE: Cell<usize> = const { Cell::new(0) };
}

/// How many parked workers the calling thread has started through
/// [`ExecPool`] so far. A diagnostic: a map on warmed workers starts none.
pub fn threads_started_here() -> usize {
    STARTED_HERE.with(Cell::get)
}

fn note_started() {
    STARTED_HERE.with(|n| n.set(n.get() + 1));
}

/// Every critical section in this module leaves its data valid at each
/// step (a push, a pop, a counter bump), so a poisoned lock is recovered.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How long a map's caller yields, re-checking, before it sleeps on the
/// chunks other threads still run. On the two-core host a sleep costs
/// `sharded_semantics` ~7 µs of its ~40 µs is-not-match p50 (PR 25).
const JOIN_YIELD: Duration = Duration::from_micros(50);

/// One parked job: a helper's turn at some map's unstarted chunks.
type Job = Box<dyn FnOnce() + Send>;

/// The process's parked workers, behind [`ExecPool::try_map`].
static PARKED: Parked = Parked::new();

/// Worker threads blocked on a condvar until a job is queued. They never
/// spin — the caller of a map runs beside them, and the host may have no
/// core to spare — and never exit, so their handles are not kept.
struct Parked {
    queue: Mutex<Queue>,
    work: Condvar,
}

struct Queue {
    jobs: VecDeque<Job>,
    workers: usize,
}

impl Parked {
    const fn new() -> Parked {
        Parked {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                workers: 0,
            }),
            work: Condvar::new(),
        }
    }

    /// Queues `jobs`, first growing the pool to at least one worker per
    /// job, and returns without waiting for any of them. A failed thread
    /// start queues fewer jobs: the caller takes back what nobody runs.
    fn submit(&'static self, jobs: impl ExactSizeIterator<Item = Job>) {
        let mut q = lock(&self.queue);
        while q.workers < jobs.len() {
            let started = std::thread::Builder::new()
                .name("ibis-pool".into())
                .spawn(move || self.serve());
            if started.is_err() {
                break;
            }
            q.workers += 1;
            note_started();
        }
        let queued = jobs.len().min(q.workers);
        q.jobs.extend(jobs.take(queued));
        drop(q);
        for _ in 0..queued {
            self.work.notify_one();
        }
    }

    /// A worker's whole life. Jobs contain their own panics, so a worker
    /// survives every map it helps.
    fn serve(&self) {
        loop {
            let job = {
                let mut q = lock(&self.queue);
                loop {
                    match q.jobs.pop_front() {
                        Some(job) => break job,
                        None => q = self.work.wait(q).unwrap_or_else(PoisonError::into_inner),
                    }
                }
            };
            job();
        }
    }
}

/// The deterministic chunker: `items` in contiguous runs of `⌈n / threads⌉`
/// (the last may be shorter), at most `threads` of them.
fn chunk<T>(mut items: Vec<T>, threads: usize) -> Vec<Vec<T>> {
    let size = items.len().div_ceil(threads.max(1)).max(1);
    let mut chunks = Vec::with_capacity(threads.min(items.len()));
    while !items.is_empty() {
        let rest = items.split_off(items.len().min(size));
        chunks.push(std::mem::replace(&mut items, rest));
    }
    chunks
}

/// Runs `f` on the calling thread, containing a panic anywhere under it:
/// the panic comes back as [`Error::WorkerPanicked`], and the thread goes
/// on. What a map does for each chunk, for one call that is not a map (a
/// server worker's job).
pub fn contain<U>(f: impl FnOnce() -> Result<U>) -> Result<U> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        Err(Error::WorkerPanicked {
            detail: panic_detail(payload),
        })
    })
}

/// Applies `f` to `chunk` in order, stopping at its first failure; a panic
/// is contained and reported as [`Error::WorkerPanicked`].
fn run_chunk<T, U>(chunk: Vec<T>, f: impl Fn(T) -> Result<U>) -> Result<Vec<U>> {
    contain(|| chunk.into_iter().map(f).collect())
}

/// One fanned-out map: its closure and its chunks, shared by the caller
/// and whichever threads help it.
struct Fanout<T, U, F> {
    f: F,
    /// The span that issued the map, every chunk's `pool.worker` parent.
    parent: u64,
    /// Chunks nobody has started, highest index first so `pop` claims them
    /// in input order.
    todo: Mutex<Vec<(usize, Vec<T>)>>,
    done: Mutex<Done<U>>,
    finished: Condvar,
}

struct Done<U> {
    parts: Vec<Option<Result<Vec<U>>>>,
    left: usize,
}

impl<T, U, F: Fn(T) -> Result<U>> Fanout<T, U, F> {
    /// The map over `chunks` (at least two), with chunk 0 handed back: it
    /// is the caller's.
    fn new(chunks: Vec<Vec<T>>, f: F) -> (Self, Vec<T>) {
        let n = chunks.len();
        let mut todo: Vec<(usize, Vec<T>)> = chunks.into_iter().enumerate().rev().collect();
        let (_, first) = todo.pop().expect("a fan-out has at least two chunks");
        let fanout = Fanout {
            f,
            parent: ibis_obs::current_span_id(),
            todo: Mutex::new(todo),
            done: Mutex::new(Done {
                parts: (0..n).map(|_| None).collect(),
                left: n,
            }),
            finished: Condvar::new(),
        };
        (fanout, first)
    }

    /// The caller's share: chunk 0, then every chunk still unstarted.
    fn work(&self, first: Vec<T>) {
        self.run(0, first);
        self.help();
    }

    /// Claims and runs unstarted chunks until there are none.
    fn help(&self) {
        loop {
            let claimed = lock(&self.todo).pop();
            let Some((i, chunk)) = claimed else { return };
            self.run(i, chunk);
        }
    }

    /// Runs chunk `i` under its `pool.worker` span, closed before the
    /// result is handed back so a snapshot taken after the map sees it.
    fn run(&self, i: usize, chunk: Vec<T>) {
        let mut span = ibis_obs::span_with_parent("pool.worker", self.parent);
        span.add_field("items", chunk.len() as u64);
        let part = run_chunk(chunk, &self.f);
        drop(span);
        let mut done = lock(&self.done);
        done.parts[i] = Some(part);
        done.left -= 1;
        if done.left == 0 {
            self.finished.notify_one();
        }
    }

    /// Waits for every chunk, then merges in input order. Each chunk stopped
    /// at its first failure, so the first failing chunk holds the first
    /// failure.
    fn join(&self) -> Result<Vec<U>> {
        // A chunk still running elsewhere is typically a few shard visits
        // from done, and waking from a condvar sleep costs more than that:
        // give the core away (never hold it) for up to JOIN_YIELD first.
        let waiting = Instant::now();
        while lock(&self.done).left > 0 && waiting.elapsed() < JOIN_YIELD {
            std::thread::yield_now();
        }
        let mut done = lock(&self.done);
        while done.left > 0 {
            done = self
                .finished
                .wait(done)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let mut out = Vec::new();
        for part in done.parts.drain(..) {
            out.extend(part.expect("every chunk has finished")?);
        }
        Ok(out)
    }
}

/// Re-raises a contained panic on the caller of an infallible map.
fn expect_no_panic<U>(result: Result<Vec<U>>) -> Vec<U> {
    match result {
        Ok(out) => out,
        Err(Error::WorkerPanicked { detail }) => panic!("worker panicked: {detail}"),
        Err(e) => panic!("worker panicked: {e}"),
    }
}

/// A bounded worker pool: a degree, and a map that fans out over the
/// parked workers (see the module docs). Degree 1, or fewer than two items,
/// runs inline on the caller with no thread and no span.
#[derive(Clone, Copy, Debug)]
pub struct ExecPool {
    threads: usize,
}

impl Default for ExecPool {
    fn default() -> ExecPool {
        ExecPool::current()
    }
}

impl ExecPool {
    /// A pool of up to `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> ExecPool {
        ExecPool {
            threads: threads.max(1),
        }
    }

    /// The pool at the process-wide configured degree
    /// ([`configured_threads`]).
    pub fn current() -> ExecPool {
        ExecPool::new(configured_threads())
    }

    /// The configured degree.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies the fallible `f` to every item, fanning contiguous chunks
    /// over the parked workers. Results come back in input order. The first
    /// failure (in input order) is returned; a panicking closure is
    /// contained and surfaces as [`Error::WorkerPanicked`] instead of
    /// taking down the process or the worker.
    pub fn try_map<T, U, F>(&self, items: Vec<T>, f: F) -> Result<Vec<U>>
    where
        T: Send + 'static,
        U: Send + 'static,
        F: Fn(T) -> Result<U> + Send + Sync + 'static,
    {
        self.try_map_on(&PARKED, items, f)
    }

    fn try_map_on<T, U, F>(&self, parked: &'static Parked, items: Vec<T>, f: F) -> Result<Vec<U>>
    where
        T: Send + 'static,
        U: Send + 'static,
        F: Fn(T) -> Result<U> + Send + Sync + 'static,
    {
        if self.threads == 1 || items.len() < 2 {
            return run_chunk(items, f);
        }
        let chunks = chunk(items, self.threads);
        let helpers = chunks.len() - 1;
        let (fanout, first) = Fanout::new(chunks, f);
        let fanout = Arc::new(fanout);
        // A job holds the map only weakly: one still queued after the map
        // returned (its chunks taken back) is a no-op, and keeps nothing
        // of the caller's alive.
        parked.submit((0..helpers).map(|_| {
            let fanout = Arc::downgrade(&fanout);
            Box::new(move || {
                if let Some(fanout) = fanout.upgrade() {
                    fanout.help();
                }
            }) as Job
        }));
        fanout.work(first);
        fanout.join()
    }

    /// Applies the infallible `f` to every item on the parked workers,
    /// returning results in input order.
    ///
    /// # Panics
    /// Panics with `"worker panicked: …"` if `f` panics on any item (the
    /// panic is contained where it happened and re-raised on the caller).
    pub fn map<T, U, F>(&self, items: Vec<T>, f: F) -> Vec<U>
    where
        T: Send + 'static,
        U: Send + 'static,
        F: Fn(T) -> U + Send + Sync + 'static,
    {
        expect_no_panic(self.try_map(items, move |item| Ok(f(item))))
    }
}

/// Renders a contained panic payload for [`Error::WorkerPanicked`].
fn panic_detail(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    /// A pool of its own, so a test can count and occupy its workers
    /// without other tests' maps growing or draining it.
    fn private_pool() -> &'static Parked {
        Box::leak(Box::new(Parked::new()))
    }

    fn workers(pool: &Parked) -> usize {
        lock(&pool.queue).workers
    }

    #[test]
    fn preserves_order() {
        let items: Vec<u32> = (0..1000).collect();
        let got = ExecPool::new(4).map(items, |x| x * 2);
        assert_eq!(got, (0..1000).map(|x| x * 2).collect::<Vec<u32>>());
    }

    #[test]
    fn single_thread_fallback() {
        assert_eq!(
            ExecPool::new(1).map(vec![1, 2, 3], |x| x + 1),
            vec![2, 3, 4]
        );
        assert_eq!(
            ExecPool::new(4).map(Vec::<u32>::new(), |x| x),
            Vec::<u32>::new()
        );
        assert_eq!(ExecPool::new(16).map(vec![7], |x| x), vec![7]);
    }

    #[test]
    fn more_threads_than_items() {
        let got = ExecPool::new(64).map(vec![1u32, 2, 3], |x| x * x);
        assert_eq!(got, vec![1, 4, 9]);
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn worker_panic_propagates() {
        ExecPool::new(2).map(vec![0u32, 1], |x| {
            assert!(x != 1, "boom");
            x
        });
    }

    #[test]
    fn try_map_contains_panics_instead_of_aborting() {
        // The satellite bug: a panicking closure must surface as an Error,
        // not take down the process.
        for threads in [1, 2, 8] {
            let err = ExecPool::new(threads)
                .try_map((0..100u32).collect(), |x| {
                    assert!(x != 57, "boom at {x}");
                    Ok(x)
                })
                .unwrap_err();
            match err {
                Error::WorkerPanicked { detail } => {
                    assert!(detail.contains("boom at 57"), "{detail}")
                }
                other => panic!("expected WorkerPanicked, got {other:?}"),
            }
        }
    }

    #[test]
    fn try_map_returns_first_error_in_input_order() {
        let fail_at = |bad: Vec<u32>| {
            ExecPool::new(4)
                .try_map((0..64u32).collect(), move |x| {
                    if bad.contains(&x) {
                        Err(Error::ZeroCardinality { attr: x as usize })
                    } else {
                        Ok(x)
                    }
                })
                .unwrap_err()
        };
        assert_eq!(fail_at(vec![50, 3, 20]), Error::ZeroCardinality { attr: 3 });
    }

    #[test]
    fn try_map_ok_matches_sequential() {
        for threads in [1, 2, 3, 16] {
            let got = ExecPool::new(threads)
                .try_map((0..33u32).collect(), |x| Ok(x + 1))
                .unwrap();
            assert_eq!(got, (1..=33).collect::<Vec<u32>>());
        }
    }

    #[test]
    fn parked_workers_are_reused() {
        let pool = private_pool();
        let before = threads_started_here();
        for round in 0..1000u32 {
            let got = ExecPool::new(2)
                .try_map_on(pool, vec![round, round + 1], |x| Ok(x * 2))
                .unwrap();
            assert_eq!(got, vec![round * 2, round * 2 + 2]);
        }
        assert_eq!(workers(pool), 1);
        assert_eq!(threads_started_here() - before, 1);
    }

    #[test]
    fn a_panicking_item_leaves_the_worker_serving() {
        // Chunk 0 (the caller's) waits until chunk 1 has run, so chunk 1 is
        // the worker's in both maps; the second map can only finish if the
        // worker survived the first one's panic.
        let pool = private_pool();
        let run = |panic_at: Option<u32>| {
            let (ran, wait) = mpsc::sync_channel::<std::thread::ThreadId>(1);
            let wait = Mutex::new(wait);
            ExecPool::new(2).try_map_on(pool, vec![0u32, 1], move |x| {
                if x == 0 {
                    let worker = lock(&wait).recv().expect("chunk 1 reports");
                    assert_ne!(worker, std::thread::current().id());
                } else {
                    ran.send(std::thread::current().id())
                        .expect("chunk 0 waits");
                    assert!(Some(x) != panic_at, "boom at {x}");
                }
                Ok(x)
            })
        };
        match run(Some(1)) {
            Err(Error::WorkerPanicked { detail }) => assert!(detail.contains("boom at 1")),
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        assert_eq!(run(None).unwrap(), vec![0, 1]);
        assert_eq!(workers(pool), 1);
    }

    #[test]
    fn a_map_inside_a_busy_parked_job_takes_its_chunks_back() {
        // One worker. Both outer chunks meet at a barrier, so the worker is
        // busy with chunk 1 when each issues an inner degree-2 map whose
        // helper job nobody is free to run: only take-back finishes them.
        let pool = private_pool();
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let barrier = std::sync::Barrier::new(2);
            let out = ExecPool::new(2).try_map_on(pool, vec![10u32, 20], move |x| {
                barrier.wait();
                let inner = ExecPool::new(2).try_map_on(pool, vec![x, x + 1], |y| Ok(y * 3))?;
                Ok(inner.iter().sum::<u32>())
            });
            tx.send(out).expect("the test waits");
        });
        let out = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("a nested map deadlocked");
        assert_eq!(out.unwrap(), vec![63, 123]);
        assert_eq!(workers(pool), 1);
    }

    #[test]
    fn concurrent_callers_get_their_own_results_in_order() {
        let callers: Vec<_> = (0..8u64)
            .map(|c| {
                std::thread::spawn(move || {
                    let items: Vec<u64> = (0..257).map(|i| c * 1000 + i).collect();
                    let want: Vec<u64> = items.iter().map(|x| x * 7).collect();
                    for _ in 0..20 {
                        assert_eq!(ExecPool::new(4).map(items.clone(), |x| x * 7), want);
                    }
                })
            })
            .collect();
        for caller in callers {
            caller.join().expect("caller thread");
        }
    }

    #[test]
    fn every_worker_span_is_visible_when_the_map_returns() {
        // The only test in this crate that installs a recorder; other
        // tests' chunk spans may land in it too, so filter on our parent.
        ibis_obs::Recorder::enabled().install();
        let root = ibis_obs::span("test.root");
        let got = ExecPool::new(3).map((0..9u32).collect(), |x| x + 1);
        let snap = ibis_obs::snapshot();
        let chunks: Vec<_> = snap
            .spans
            .iter()
            .filter(|s| s.name == "pool.worker" && s.parent == root.id())
            .collect();
        drop(root);
        ibis_obs::Recorder::disabled().install();
        assert_eq!(got, (1..=9).collect::<Vec<u32>>());
        assert_eq!(chunks.len(), 3, "{chunks:?}");
        let items: u64 = chunks
            .iter()
            .flat_map(|s| &s.fields)
            .filter(|(k, _)| k == "items")
            .map(|(_, v)| v)
            .sum();
        assert_eq!(items, 9);
    }

    #[test]
    fn contain_turns_a_panic_into_an_error_on_the_caller() {
        assert_eq!(contain(|| Ok(7)), Ok(7));
        let refused = Error::ZeroCardinality { attr: 2 };
        assert_eq!(contain(|| Err::<u32, _>(refused.clone())), Err(refused));
        match contain(|| -> Result<u32> { panic!("boom in a job") }) {
            Err(Error::WorkerPanicked { detail }) => assert_eq!(detail, "boom in a job"),
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn priced_degree_makes_every_chunk_pay_for_its_wake_up() {
        let chunks = |n: f64| n * WAKES_PER_CHUNK * WAKE_PRICE;
        for (work, ceiling, want) in [
            (0.0, 8, 1),
            (chunks(0.99), 8, 1),
            (chunks(1.0), 8, 2),
            (chunks(1.99), 8, 2),
            (chunks(2.0), 8, 3),
            (chunks(100.0), 8, 8),
            (chunks(100.0), 2, 2),
            (chunks(100.0), 1, 1),
            (chunks(100.0), 0, 1),
            (f64::INFINITY, 4, 4),
            (f64::NAN, 4, 1),
            (-1.0, 4, 1),
        ] {
            assert_eq!(priced_degree(work, ceiling), want, "{work} ≤ {ceiling}");
        }
    }

    #[test]
    fn partition_covers_in_order() {
        for (n, parts) in [(0usize, 4usize), (1, 4), (5, 2), (64, 8), (65, 8), (7, 100)] {
            let ranges = partition(n, parts);
            assert!(ranges.len() <= parts.max(1));
            let flat: Vec<usize> = ranges.iter().flat_map(|r| r.clone()).collect();
            assert_eq!(flat, (0..n).collect::<Vec<usize>>(), "n={n} parts={parts}");
            assert!(ranges.iter().all(|r| !r.is_empty()));
        }
    }

    #[test]
    fn thread_override_beats_environment() {
        // NB: the override is process-global and other tests read
        // configured_threads(); put back exactly what this test found
        // (usually 0, "unset"), which set_threads cannot express.
        let found = THREAD_OVERRIDE.load(Ordering::Relaxed);
        set_threads(3);
        assert_eq!(configured_threads(), 3);
        set_threads(0); // clamps to 1
        assert_eq!(configured_threads(), 1);
        THREAD_OVERRIDE.store(found, Ordering::Relaxed);
        assert!(default_threads() >= 1);
        assert!(ExecPool::current().threads() >= 1);
        assert_eq!(ExecPool::default().threads(), ExecPool::current().threads());
    }
}
