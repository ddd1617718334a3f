//! The unified session engine: the recommended `SLAUNCH`/sePCR session
//! lifecycle (§5, Figure 6), with batch behavior composed from policy
//! objects. This module encodes the lifecycle in the type system:
//!
//! * [`Session`] is a typestate handle walking `Launched → Stepping →
//!   Sealed`; the terminal outcomes (`Quoted`/`Killed`/`Degraded`) are
//!   the [`SessionResult`] variants. Illegal transitions (resuming an
//!   exited PAL, quoting a live one) do not compile.
//! * [`SessionEngine`] is the one batch executor. It drives an
//!   [`EnhancedSea`] directly; its type parameter is the [`Slaunch`]
//!   marker, kept because callers name `SessionEngine<Slaunch>`. Legacy
//!   `SKINIT` sessions run through [`LegacySea`](crate::LegacySea) and
//!   `sea_os::LegacyBatch` instead. The engine's behavior is composed
//!   from a [`BatchPolicy`]: add a [`RetryPolicy`] for bounded fault
//!   recovery, add a [`ResetPlan`] for crash-consistent durability
//!   (write-ahead [`SessionJournal`] logged into TPM NVRAM under a
//!   sealed head), pick a worker count for concurrency. Every
//!   combination returns the same [`BatchOutcome`].
//!
//! # Executors
//!
//! The engine runs each batch epoch on one of two interchangeable
//! backends, selected by [`Executor`] (engine-wide via
//! [`SessionEngine::with_executor`] or the `SEA_EXECUTOR` environment
//! variable, per batch via [`BatchPolicy::with_executor`]):
//!
//! * [`Executor::ThreadPool`] — one OS thread per simulated CPU (the
//!   original backend; see `crate::threadpool`).
//! * [`Executor::DiscreteEvent`] — virtual CPUs stepped by a
//!   deterministic `(time, session id)` event queue on one OS thread,
//!   so a batch can model far more CPUs than the host has cores (see
//!   `crate::des`).
//!
//! # Determinism
//!
//! Both executors inherit the concurrent engine's contract: job *i*
//! runs on worker/CPU `i % workers`, per-job costs are intrinsic, each
//! CPU sums its own jobs' costs into its busy time, and results return
//! in job-index order — so outcomes are byte-identical across worker
//! counts, host interleavings, *and executors*. Both call the same
//! per-job steps, `WorkerMode::start` and `WorkerMode::finish`, around
//! the shared session driver. The differential suites
//! (`tests/golden_differential.rs`, `tests/executor_differential.rs`)
//! pin the two backends against each other.
//!
//! # The engine lock
//!
//! One mutex guards the shared [`EnhancedSea`] and, while a durable
//! batch runs, that batch's epoch state: the journal, the reset
//! triggers, the seal-time total, the crash flag and the group-commit
//! counter. Every batch sets that state at its start (`None` when the
//! batch is not durable), so an aborted batch cannot leak into the
//! next. The lock is taken **per operation**, never per job, and never
//! nested; the plain path takes it exactly once per session operation.
//! The hot path keeps obs emission for retries *outside* it: a retry's
//! `recovery.backoff` leaf lands on the session's own track (owned by
//! exactly one worker, ordered by a per-track sequence) and counters
//! are order-insensitive, so neither needs the lock. Only shared-state
//! mutations — trace records, journal commit gates, `PLATFORM_TRACK`
//! spans — serialize on it.

use std::marker::PhantomData;
use std::sync::{Mutex, MutexGuard, PoisonError};

use sea_hw::{CpuId, FaultPlan, Layer, Obs, ResetPlan, SimDuration, TraceEvent, PLATFORM_TRACK};
use sea_tpm::Quote;

use crate::driver::SessionDriver;
use crate::enhanced::{EnhancedSea, PalId, PalStep};
use crate::error::SeaError;
use crate::journal::SessionJournal;
use crate::pal::PalLogic;
use crate::platform::SecurePlatform;
use crate::recovery::RetryPolicy;
use crate::report::SessionReport;
use crate::{des, threadpool};

/// TPM NVRAM index where the durable engine parks the sealed head of
/// its session journal ("SJNL" in ASCII): the log's format tag, length
/// and hash-chain head, sealed to the empty PCR selection. One head
/// lives here at a time; each checkpoint overwrites it, and pins the log
/// at [`JOURNAL_LOG_NV_INDEX`].
pub const JOURNAL_NV_INDEX: u32 = 0x534a_4e4c;

/// TPM NVRAM index of the session journal's append-only log ("SJLG" in
/// ASCII): one frame of changed records per checkpoint, pinned by the
/// head at [`JOURNAL_NV_INDEX`].
pub const JOURNAL_LOG_NV_INDEX: u32 = 0x534a_4c47;

/// Which backend executes a batch epoch.
///
/// Both backends satisfy the engine's determinism contract and produce
/// byte-identical session results, quotes, per-CPU busy times, and
/// wall times for the same batch; they differ in *how* concurrency is
/// realised — OS threads racing on locks versus virtual CPUs stepped
/// by a deterministic event queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Executor {
    /// One OS thread per simulated CPU (the default). Limited to the
    /// host's appetite for threads; interleaving is host-dependent,
    /// determinism is enforced by folding.
    #[default]
    ThreadPool,
    /// Virtual CPUs on one OS thread, stepped in `(event time, session
    /// id)` order by a discrete-event queue. Scales to platforms far
    /// wider than the host (1024 virtual CPUs in one process) and makes
    /// the whole schedule — including the machine trace — a pure
    /// function of the batch.
    DiscreteEvent,
}

impl Executor {
    /// Resolves the executor from the `SEA_EXECUTOR` environment
    /// variable: `des` / `discrete-event` / `event` select
    /// [`Executor::DiscreteEvent`], `threads` / `thread-pool` /
    /// `threadpool` select [`Executor::ThreadPool`], anything else
    /// (including unset) falls back to the default thread pool.
    fn from_env() -> Self {
        match std::env::var("SEA_EXECUTOR").as_deref() {
            Ok("des") | Ok("discrete-event") | Ok("event") => Executor::DiscreteEvent,
            _ => Executor::ThreadPool,
        }
    }
}

/// Completions per virtual second of wall time — the one rate formula
/// [`BatchOutcome`] and every bench table share, so engine outcomes and
/// bench JSON cannot disagree.
pub fn rate_per_sec(completed: usize, wall: SimDuration) -> f64 {
    let secs = wall.as_secs_f64();
    if secs == 0.0 {
        0.0
    } else {
        completed as f64 / secs
    }
}

/// Parallel speedup: aggregate (serial) virtual cost over batch wall
/// time. `1.0` for an empty batch. Shared with the bench tables for the
/// same reason as [`rate_per_sec`].
pub fn speedup(aggregate: SimDuration, wall: SimDuration) -> f64 {
    let wall = wall.as_secs_f64();
    if wall == 0.0 {
        1.0
    } else {
        aggregate.as_secs_f64() / wall
    }
}

/// One unit of work for the pool: a PAL plus its input.
pub struct ConcurrentJob {
    pub(crate) logic: Box<dyn PalLogic + Send>,
    pub(crate) input: Vec<u8>,
}

impl ConcurrentJob {
    /// Packages a PAL and its input for submission.
    pub fn new(logic: Box<dyn PalLogic + Send>, input: impl Into<Vec<u8>>) -> Self {
        ConcurrentJob {
            logic,
            input: input.into(),
        }
    }
}

/// Result of one job in a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobResult {
    /// The PAL's output.
    pub output: Vec<u8>,
    /// The session's cost breakdown (virtual time).
    pub report: SessionReport,
    /// Virtual cost of the post-exit `TPM_Quote` + `TPM_SEPCR_Free`.
    pub quote_cost: SimDuration,
    /// The CPU (= worker) the session ran on.
    pub cpu: CpuId,
}

impl JobResult {
    /// The job's full virtual cost: session plus attestation.
    pub fn total(&self) -> SimDuration {
        self.report.total() + self.quote_cost
    }
}

/// Outcome of one job driven by the recovery layer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SessionResult {
    /// The session completed (possibly after retries) and was quoted.
    Quoted {
        /// The session's output, report, quote cost, and CPU.
        result: JobResult,
        /// The attestation over the session's sePCR.
        quote: Quote,
        /// How many injected faults were retried along the way.
        retries: u32,
        /// Virtual time spent on fault handling and backoff.
        recovery_cost: SimDuration,
    },
    /// The sePCR bank was saturated at launch; the session ran to
    /// completion on the legacy (late-launch) slow path instead,
    /// without a sePCR-bound quote.
    Degraded {
        /// The job's index in the batch.
        job: usize,
        /// The PAL's output.
        output: Vec<u8>,
        /// The legacy session's cost breakdown.
        report: SessionReport,
    },
    /// The retry budget was exhausted (or the fault was fatal); the
    /// session was torn down via `SKILL` and its sePCR reclaimed.
    Killed {
        /// The job's index in the batch.
        job: usize,
        /// Attempts made (1 initial + retries) before giving up.
        attempts: u32,
        /// The error that ended the session.
        error: SeaError,
        /// Virtual time wasted on the failed attempts.
        wasted: SimDuration,
    },
}

impl SessionResult {
    /// The job's virtual cost as charged to its worker CPU.
    pub fn cost(&self) -> SimDuration {
        match self {
            SessionResult::Quoted {
                result,
                recovery_cost,
                ..
            } => result.total() + *recovery_cost,
            SessionResult::Degraded { report, .. } => report.total(),
            SessionResult::Killed { wasted, .. } => *wasted,
        }
    }

    /// Whether the session completed and was quoted.
    pub fn is_quoted(&self) -> bool {
        matches!(self, SessionResult::Quoted { .. })
    }

    /// Whether the session was killed.
    pub fn is_killed(&self) -> bool {
        matches!(self, SessionResult::Killed { .. })
    }
}

/// Terminal-variant counts for a slice of session results: the one
/// tally [`BatchOutcome`]'s `quoted()` / `degraded()` / `killed()`
/// counters derive from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionTally {
    /// Sessions that completed with an attestation.
    pub quoted: usize,
    /// Sessions that completed on the degraded legacy slow path.
    pub degraded: usize,
    /// Sessions torn down after exhausting their retry budget.
    pub killed: usize,
}

impl SessionTally {
    /// Tallies the terminal variants in `sessions`.
    pub fn of(sessions: &[SessionResult]) -> Self {
        let mut tally = SessionTally::default();
        for s in sessions {
            match s {
                SessionResult::Quoted { .. } => tally.quoted += 1,
                SessionResult::Degraded { .. } => tally.degraded += 1,
                SessionResult::Killed { .. } => tally.killed += 1,
            }
        }
        tally
    }

    /// Sessions that produced an output (quoted or degraded).
    pub fn completed(&self) -> usize {
        self.quoted + self.degraded
    }
}

/// The paper's recommended hardware (§5): `SLAUNCH` over an
/// [`EnhancedSea`] runtime — suspendable sessions, sePCR-bound quotes,
/// `SKILL` teardown, graceful degradation to the legacy slow path on
/// sePCR saturation. A marker only: it names [`SessionEngine`]'s type
/// parameter, and the engine drives [`EnhancedSea`] directly.
#[derive(Debug, Clone, Copy, Default)]
pub struct Slaunch;

mod sealed {
    /// Closes the [`super::Stage`] set: the lifecycle has exactly the
    /// states Figure 6 has.
    pub trait Sealed {}
    impl Sealed for super::Launched {}
    impl Sealed for super::Stepping {}
    impl Sealed for super::Sealed {}
}

/// A typestate marker for the session lifecycle (`Launched → Stepping
/// → Sealed`). The set is closed — the lifecycle has exactly the
/// states the paper's Figure 6 has.
pub trait Stage: sealed::Sealed {}

/// The session is live and has not yet been stepped to a boundary.
#[derive(Debug, Clone, Copy)]
pub struct Launched;

/// The session yielded (`SYIELD`) and awaits a resume.
#[derive(Debug, Clone, Copy)]
pub struct Stepping;

/// The PAL exited: its output is sealed in the handle and the session
/// awaits its attestation.
#[derive(Debug, Clone, Copy)]
pub struct Sealed;

impl Stage for Launched {}
impl Stage for Stepping {}
impl Stage for Sealed {}

/// A live session walking the typestate lifecycle. Obtain one from
/// [`SessionEngine::launch`]; consume it through [`Session::step`] /
/// [`Session::resume`] / [`Session::quote_and_free`]. Transitions
/// Figure 6 lacks do not compile.
pub struct Session<'e, S: Stage> {
    rt: &'e RuntimeLock,
    logic: &'e mut dyn PalLogic,
    live: PalId,
    cpu: CpuId,
    index: usize,
    output: Vec<u8>,
    _stage: PhantomData<S>,
}

/// Result of stepping a launched session: it either yielded (resume
/// it) or exited (quote it).
pub enum Stepped<'e> {
    /// The PAL yielded the CPU; the session awaits a resume.
    Yielded(Session<'e, Stepping>),
    /// The PAL exited; the session awaits its attestation.
    Exited(Session<'e, Sealed>),
}

impl<'e, S: Stage> Session<'e, S> {
    /// The job's index in its batch (also the session key and
    /// quote-nonce seed).
    pub fn index(&self) -> usize {
        self.index
    }

    /// The CPU the session runs on.
    pub fn cpu(&self) -> CpuId {
        self.cpu
    }

    /// Moves the handle to another stage. Private: the public
    /// transition methods are the only legal edges.
    fn into_stage<T: Stage>(self) -> Session<'e, T> {
        Session {
            rt: self.rt,
            logic: self.logic,
            live: self.live,
            cpu: self.cpu,
            index: self.index,
            output: self.output,
            _stage: PhantomData,
        }
    }

    /// Tears the session down mid-flight via `SKILL`, reclaiming its
    /// resources.
    fn kill_inner(self) -> Result<(), SeaError> {
        let key = self.index as u64;
        self.rt.lock().sea.kill_session(self.live, key)
    }
}

impl<'e> Session<'e, Launched> {
    /// Launches a session: the entry edge of the lifecycle.
    fn start(
        rt: &'e RuntimeLock,
        logic: &'e mut dyn PalLogic,
        input: &[u8],
        cpu: CpuId,
        index: usize,
    ) -> Result<Self, SeaError> {
        let live = rt.lock().sea.slaunch(logic, input, cpu, None)?;
        Ok(Session {
            rt,
            logic,
            live,
            cpu,
            index,
            output: Vec::new(),
            _stage: PhantomData,
        })
    }

    /// Runs the PAL until it yields or exits.
    pub fn step(mut self) -> Result<Stepped<'e>, SeaError> {
        let step = self.rt.lock().sea.step(self.logic, self.live)?;
        match step {
            PalStep::Yielded => Ok(Stepped::Yielded(self.into_stage())),
            PalStep::Exited { output } => {
                self.output = output;
                Ok(Stepped::Exited(self.into_stage()))
            }
        }
    }

    /// Tears the live session down without an attestation.
    pub fn kill(self) -> Result<(), SeaError> {
        self.kill_inner()
    }
}

impl<'e> Session<'e, Stepping> {
    /// Resumes the yielded PAL on its CPU.
    pub fn resume(self) -> Result<Session<'e, Launched>, SeaError> {
        self.rt.lock().sea.resume(self.live, self.cpu)?;
        Ok(self.into_stage())
    }

    /// Tears the suspended session down without an attestation.
    pub fn kill(self) -> Result<(), SeaError> {
        self.kill_inner()
    }
}

impl Session<'_, Sealed> {
    /// Attests the exited session over `nonce` and retires it,
    /// returning the job's result and the quote.
    pub fn quote_and_free(self, nonce: &[u8]) -> Result<(JobResult, Quote), SeaError> {
        let mut rt = self.rt.lock();
        let report = rt.sea.report(self.live)?;
        let quote = rt.sea.quote_and_free(self.live, nonce)?;
        Ok((
            JobResult {
                output: self.output,
                report,
                quote_cost: quote.elapsed,
                cpu: self.cpu,
            },
            quote.value,
        ))
    }
}

/// Composable batch behavior for [`SessionEngine::run`]: start from
/// [`BatchPolicy::plain`] and layer on the policy objects the batch
/// needs. Concurrency is not a policy — it is the engine's worker
/// count.
///
/// | composition                             | batch behavior                          |
/// |-----------------------------------------|-----------------------------------------|
/// | `plain()`                               | fault-free fast path                    |
/// | `.with_retry(...)`                      | bounded-retry fault recovery            |
/// | `.with_retry(...).with_durability(...)` | recovery plus a journal that survives power loss |
#[derive(Debug, Clone, Default)]
pub struct BatchPolicy {
    retry: Option<RetryPolicy>,
    durability: Option<ResetPlan>,
    executor: Option<Executor>,
    group_commit: usize,
}

impl BatchPolicy {
    /// The fast path: no fault exposure, no journaling.
    pub fn plain() -> Self {
        BatchPolicy::default()
    }

    /// Adds bounded fault recovery: sessions run keyed (exposed to the
    /// installed fault plan), transient faults retry with virtual-time
    /// backoff, saturation degrades, exhaustion kills in-band.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Adds crash-consistent durability: terminal results are committed
    /// to a write-ahead journal logged into TPM NVRAM under a sealed
    /// head, and `plan`'s power losses reboot the platform and relaunch
    /// whatever had not committed. Implies keyed (recovered) driving —
    /// with no explicit retry policy, [`RetryPolicy::default`] applies.
    pub fn with_durability(mut self, plan: ResetPlan) -> Self {
        self.durability = Some(plan);
        self
    }

    /// Overrides the engine's executor for batches run under this
    /// policy (the engine's own choice — [`SessionEngine::with_executor`]
    /// or `SEA_EXECUTOR` — applies otherwise).
    pub fn with_executor(mut self, executor: Executor) -> Self {
        self.executor = Some(executor);
        self
    }

    /// Batches up to `sessions` terminal commits into one NVRAM seal
    /// (group commit). Each terminal still enters the write-ahead
    /// journal immediately — only the expensive `TPM_Seal` checkpoint
    /// is deferred until the group fills. Buffered commits are durable
    /// *only once sealed*: until then they are volatile attempts —
    /// final if the epoch ends cleanly, relaunched (and
    /// deterministically re-derived) if the power fails first. `0` and
    /// `1` both mean "seal every commit", the pre-group behavior.
    pub fn with_group_commit(mut self, sessions: usize) -> Self {
        self.group_commit = sessions;
        self
    }

    /// The retry policy, if fault recovery was requested.
    pub fn retry(&self) -> Option<RetryPolicy> {
        self.retry
    }

    /// Commits batched per NVRAM seal (at least 1).
    fn group_commit(&self) -> usize {
        self.group_commit.max(1)
    }

    /// The reset plan, if durability was requested.
    fn durability(&self) -> Option<&ResetPlan> {
        self.durability.as_ref()
    }

    /// The executor override, if one was requested.
    pub fn executor(&self) -> Option<Executor> {
        self.executor
    }
}

/// Aggregate outcome of one [`SessionEngine::run`], whatever its
/// policy: the crash-history fields are zero / empty for batches whose
/// policy carried no [`ResetPlan`].
///
/// The per-session results are byte-identical across worker counts,
/// and — for durable batches — byte-identical to the crash-free run of
/// the same batch: committed sessions are restored verbatim from the
/// journal, and relaunched sessions re-derive the identical result
/// because fault rolls are a pure function of `(plan, session key,
/// operation order)` and fault cursors rewind at reset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Per-job outcomes, in job-index order.
    pub sessions: Vec<SessionResult>,
    /// Virtual busy time accumulated by each worker/CPU, including work
    /// torn by crashes and redone after recovery.
    pub cpu_busy: Vec<SimDuration>,
    /// Virtual wall time of the batch: the busiest CPU's total plus the
    /// serial recovery and journal-checkpoint overheads (both zero
    /// without a durability policy).
    pub wall: SimDuration,
    /// Platform resets the batch survived (0 without durability).
    pub resets: u32,
    /// Session keys restored from the journal at the *last* recovery
    /// (empty when no reset fired).
    pub committed: Vec<u64>,
    /// Session keys relaunched at the *last* recovery (empty when no
    /// reset fired). With `resets > 0`,
    /// `committed.len() + relaunched.len()` equals the batch size.
    pub relaunched: Vec<u64>,
    /// Virtual time spent on reboots and journal unsealing across all
    /// recoveries.
    pub recovery_latency: SimDuration,
    /// Virtual time spent sealing journal checkpoints into NVRAM.
    pub journal_overhead: SimDuration,
}

impl BatchOutcome {
    /// Tally of terminal variants across the batch.
    pub fn tally(&self) -> SessionTally {
        SessionTally::of(&self.sessions)
    }

    /// Number of sessions that completed with a quote.
    pub fn quoted(&self) -> usize {
        self.tally().quoted
    }

    /// Number of sessions that completed on the degraded slow path.
    pub fn degraded(&self) -> usize {
        self.tally().degraded
    }

    /// Number of sessions killed after exhausting their retry budget.
    pub fn killed(&self) -> usize {
        self.tally().killed
    }

    /// Sum of all sessions' virtual costs (the serial-execution wall
    /// time).
    pub fn aggregate(&self) -> SimDuration {
        self.sessions.iter().map(SessionResult::cost).sum()
    }

    /// Sessions completed per virtual second of batch wall time.
    pub fn throughput_per_sec(&self) -> f64 {
        rate_per_sec(self.sessions.len(), self.wall)
    }

    /// Completed (quoted or degraded) sessions per virtual second of
    /// batch wall time — the fault/crash sweeps' goodput axis.
    pub fn goodput_per_sec(&self) -> f64 {
        rate_per_sec(self.tally().completed(), self.wall)
    }

    /// Parallel speedup over running the same batch on one CPU.
    pub fn speedup(&self) -> f64 {
        speedup(self.aggregate(), self.wall)
    }
}

/// What one worker produced for one job in one epoch.
pub(crate) enum Attempt {
    /// Non-durable modes: the job's result (or the infrastructure
    /// error), final as soon as the epoch ends.
    Done(Result<SessionResult, SeaError>),
    /// Terminal result checkpointed to NVRAM — survives any later
    /// crash.
    Committed(SessionResult),
    /// A kill, deliberately not checkpointed (see
    /// [`SessionJournal::commit`]): final only if the epoch ends
    /// cleanly, relaunched — and deterministically re-killed —
    /// otherwise.
    Volatile(SessionResult, ConcurrentJob),
    /// The crash beat the commit: the session must relaunch.
    Torn(ConcurrentJob),
}

/// Driver-side reset state for one durable batch: the plan plus
/// once-only bookkeeping for the event cut and the reset budget.
pub(crate) struct ResetTriggers {
    plan: ResetPlan,
    cut_fired: bool,
    fired: u32,
}

impl ResetTriggers {
    fn new(plan: ResetPlan) -> Self {
        ResetTriggers {
            plan,
            cut_fired: false,
            fired: 0,
        }
    }

    /// Decides, at one commit boundary, whether the power fails there.
    /// `key` is the committing session, `recorded` the trace's
    /// cumulative event count. The power-loss roll's epoch is the
    /// number of resets already survived: every fire ends its epoch in
    /// a reset, so that is the fire count. The budget cap guarantees
    /// the recovery loop terminates even under a 100% reset rate.
    fn check(&mut self, key: u64, recorded: u64) -> bool {
        if self.fired >= self.plan.max_resets() {
            return false;
        }
        let cut = !self.cut_fired && self.plan.cut_due(recorded);
        if cut {
            self.cut_fired = true;
        }
        let fire = cut || self.plan.roll_power_loss(u64::from(self.fired), key);
        if fire {
            self.fired += 1;
        }
        fire
    }
}

/// A durable batch's mutable state. It lives under the engine lock,
/// beside the runtime whose NVRAM it checkpoints into, so the commit
/// gate's trace read, reset decision and checkpoint are one critical
/// section.
struct DurableEpoch {
    /// The write-ahead journal.
    journal: SessionJournal,
    /// Power-loss decision state.
    triggers: ResetTriggers,
    /// Accumulated checkpoint-seal time.
    journal_overhead: SimDuration,
    /// Set when the cord is yanked; later starts and commits observe it
    /// and tear. Recovery clears it.
    crashed: bool,
    /// Commits journaled since the last seal (group commit). Sealing
    /// and recovery reset it, so a crash discards the buffer exactly as
    /// it discards unsealed journal state.
    pending_seals: usize,
    /// Terminal commits batched per NVRAM seal (group commit; ≥ 1).
    group: usize,
}

impl DurableEpoch {
    fn new(plan: ResetPlan, group: usize) -> Self {
        DurableEpoch {
            journal: SessionJournal::new(),
            triggers: ResetTriggers::new(plan),
            journal_overhead: SimDuration::ZERO,
            crashed: false,
            pending_seals: 0,
            group,
        }
    }
}

/// Everything the engine lock guards.
pub(crate) struct Runtime {
    /// The runtime every session operation drives.
    pub(crate) sea: EnhancedSea,
    /// The running batch's durable state: set at every batch start,
    /// `None` when the batch is not durable.
    durable: Option<DurableEpoch>,
}

impl Runtime {
    /// Launches batch session `key` (`None` on the plain fast path). A
    /// durable batch writes the session's write-ahead `launched` record
    /// under the same lock hold as the launch.
    pub(crate) fn launch(
        &mut self,
        logic: &mut dyn PalLogic,
        input: &[u8],
        cpu: CpuId,
        key: Option<u64>,
    ) -> Result<PalId, SeaError> {
        let live = self.sea.slaunch_keyed(logic, input, cpu, key)?;
        if let (Some(epoch), Some(key)) = (&mut self.durable, key) {
            epoch.journal.record_launched(key);
        }
        Ok(live)
    }

    /// The commit gate for one terminal session of a durable batch.
    /// Running under the engine lock makes the read of the trace
    /// counter, the reset decision, and the NVRAM checkpoint one atomic
    /// boundary — no other worker can slip a commit in between. (This
    /// is the one place obs emission stays under the lock: the journal
    /// spans land on the shared PLATFORM_TRACK, so their ordering must
    /// serialize with the commits.)
    ///
    /// Identical for both executors (it runs inside
    /// [`WorkerMode::finish`]): on the thread pool right after the
    /// drive, on the worker's thread; on the discrete-event backend at
    /// the session's terminal event, in event order.
    fn commit(
        &mut self,
        obs: &Obs,
        key: u64,
        session: SessionResult,
        job: ConcurrentJob,
    ) -> Result<Attempt, SeaError> {
        let Runtime { sea, durable } = self;
        let Some(epoch) = durable.as_mut().filter(|epoch| !epoch.crashed) else {
            return Ok(Attempt::Torn(job));
        };
        let recorded = sea.platform().machine().trace().recorded();
        if epoch.triggers.check(key, recorded) {
            // The cord is yanked before this record reaches NVRAM: the
            // committing session is torn too.
            epoch.crashed = true;
            return Ok(Attempt::Torn(job));
        }
        epoch.journal.commit(key, &session);
        if session.is_killed() {
            return Ok(Attempt::Volatile(session, job));
        }
        // Group commit: buffer journaled terminals until the group
        // fills, then seal them all in one NVRAM checkpoint. A buffered
        // commit exists only in volatile memory, so it reports
        // `Volatile` — final if the epoch ends cleanly, relaunched (and
        // deterministically re-derived) if the power fails first. At
        // `group == 1` this branch is unreachable and every commit
        // seals, byte-identical to the pre-group engine.
        epoch.pending_seals += 1;
        if epoch.pending_seals < epoch.group {
            obs.add("journal.buffered", 1);
            return Ok(Attempt::Volatile(session, job));
        }
        epoch.pending_seals = 0;
        let tpm = sea.platform_mut().tpm_mut().ok_or(SeaError::NoTpm)?;
        let sealed = epoch.journal.checkpoint(tpm)?;
        // Checkpoint time serializes against the whole batch, not one
        // session: platform track.
        obs.leaf_on(PLATFORM_TRACK, Layer::Tpm, "journal.seal", sealed);
        obs.add("journal.commits", 1);
        // Contention attribution: the seal is the long pole of the
        // commit gate's engine-lock hold. Emitted on both executors
        // (pure sums, so it cannot perturb snapshot parity).
        obs.lock_event("journal.seal", Layer::Tpm, SimDuration::ZERO, sealed);
        epoch.journal_overhead += sealed;
        Ok(Attempt::Committed(session))
    }
}

/// The engine's one lock. Every session operation takes it once and
/// never nests it; on the discrete-event executor it is uncontended.
pub(crate) struct RuntimeLock(Mutex<Runtime>);

impl RuntimeLock {
    /// Acquires the lock, riding through poison: a panicked worker must
    /// not wedge the batch driver.
    pub(crate) fn lock(&self) -> MutexGuard<'_, Runtime> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// How a batch's workers drive their jobs, resolved once from the
/// [`BatchPolicy`].
#[derive(Clone, Copy)]
pub(crate) enum WorkerMode {
    /// Fast path: unkeyed lifecycle, errors surface per job.
    Plain,
    /// Keyed lifecycle with bounded fault recovery.
    Recovered {
        /// The retry budget and backoff schedule.
        retry: RetryPolicy,
    },
    /// Recovered driving plus write-ahead journaling and a power-loss
    /// gate at each session commit.
    Durable {
        /// The retry budget and backoff schedule.
        retry: RetryPolicy,
    },
}

impl WorkerMode {
    /// Opens job `i` on `cpu`: the driver to advance to its terminal,
    /// or — when a durable epoch's platform has already gone dark —
    /// the torn job, which never started and charges no busy time. A
    /// durable job records its write-ahead intent before it starts; the
    /// other modes take no lock here.
    pub(crate) fn start(
        &self,
        rt: &RuntimeLock,
        i: usize,
        cpu: CpuId,
        job: ConcurrentJob,
    ) -> Result<SessionDriver, ConcurrentJob> {
        let retry = match self {
            WorkerMode::Plain => None,
            WorkerMode::Recovered { retry } => Some(*retry),
            WorkerMode::Durable { retry } => {
                match rt.lock().durable.as_mut() {
                    Some(epoch) if !epoch.crashed => epoch.journal.record_intent(i as u64),
                    _ => return Err(job),
                }
                Some(*retry)
            }
        };
        Ok(SessionDriver::new(i, cpu, job, retry))
    }

    /// Closes a session its driver has brought to `result`: a durable
    /// epoch runs the commit gate (an infrastructure error aborts the
    /// batch). Returns the job's attempt and the busy time it charges
    /// its CPU — the session's cost, or zero for an error or a tear.
    pub(crate) fn finish(
        &self,
        rt: &RuntimeLock,
        obs: &Obs,
        driver: SessionDriver,
        result: Result<SessionResult, SeaError>,
    ) -> Result<(Attempt, SimDuration), SeaError> {
        let attempt = match self {
            WorkerMode::Durable { .. } => {
                let key = driver.index() as u64;
                rt.lock().commit(obs, key, result?, driver.into_job())?
            }
            WorkerMode::Plain | WorkerMode::Recovered { .. } => Attempt::Done(result),
        };
        let busy = match &attempt {
            Attempt::Done(Ok(s)) | Attempt::Committed(s) | Attempt::Volatile(s, _) => s.cost(),
            Attempt::Done(Err(_)) | Attempt::Torn(_) => SimDuration::ZERO,
        };
        Ok((attempt, busy))
    }
}

/// The unified batch engine: a worker pool (worker *k* plays CPU *k*)
/// driving `SLAUNCH` sessions against **one shared** [`EnhancedSea`],
/// with batch behavior composed from a [`BatchPolicy`]. `A` is the
/// [`Slaunch`] marker.
///
/// # Example
///
/// ```
/// use sea_core::engine::{BatchPolicy, SessionEngine, Slaunch};
/// use sea_core::{ConcurrentJob, FnPal, PalOutcome, SecurePlatform};
/// use sea_hw::Platform;
/// use sea_tpm::KeyStrength;
///
/// let platform =
///     SecurePlatform::new(Platform::recommended(4), KeyStrength::Demo512, b"pool");
/// let mut engine = SessionEngine::<Slaunch>::new(platform, 4).unwrap();
/// let jobs = (0..8u8)
///     .map(|i| {
///         ConcurrentJob::new(
///             Box::new(FnPal::new("job", move |_| Ok(PalOutcome::Exit(vec![i])))),
///             [],
///         )
///     })
///     .collect();
/// let outcome = engine.run(jobs, &BatchPolicy::plain()).unwrap();
/// assert_eq!(outcome.quoted(), 8);
/// assert!(outcome.speedup() > 1.0);
/// ```
pub struct SessionEngine<A = Slaunch> {
    rt: RuntimeLock,
    workers: usize,
    executor: Executor,
    _arch: PhantomData<A>,
}

impl SessionEngine<Slaunch> {
    /// Boots an engine of `workers` worker threads (worker *k* drives
    /// CPU *k*) over a fresh [`EnhancedSea`] on `platform`.
    ///
    /// # Errors
    ///
    /// Whatever [`EnhancedSea::new`] raises
    /// ([`SeaError::SlaunchUnsupported`] / [`SeaError::NoTpm`]), plus
    /// [`SeaError::NotEnoughCpus`] when `workers` is zero or exceeds
    /// the platform's CPU count.
    ///
    /// The executor backend comes from `SEA_EXECUTOR` (`des`,
    /// `discrete-event` or `event` select [`Executor::DiscreteEvent`];
    /// anything else, unset included, the thread pool); override with
    /// [`SessionEngine::with_executor`].
    /// On the discrete-event backend "worker threads" are virtual CPUs
    /// on one OS thread, so `workers` may far exceed the host's cores —
    /// the cap is still the *platform's* CPU count.
    pub fn new(mut platform: SecurePlatform, workers: usize) -> Result<Self, SeaError> {
        let n_cpus = platform.machine().cpus().len();
        if workers == 0 || workers > n_cpus {
            return Err(SeaError::NotEnoughCpus {
                requested: workers,
                available: n_cpus,
            });
        }
        // Pin TPM latencies to their nominal means: with jitter, a
        // command's sampled cost depends on its position in the shared
        // noise stream — i.e. on thread interleaving — which would break
        // the byte-identical serial/parallel contract. (A PAL that emits
        // TPM RNG output verbatim is likewise outside the contract; the
        // RNG stream is shared for the same reason.)
        if let Some(tpm) = platform.tpm_mut() {
            tpm.set_nominal_timing(true);
        }
        let sea = EnhancedSea::new(platform)?;
        Ok(SessionEngine {
            rt: RuntimeLock(Mutex::new(Runtime { sea, durable: None })),
            workers,
            executor: Executor::from_env(),
            _arch: PhantomData,
        })
    }

    /// Number of worker threads (= CPUs driven).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Selects the executor backend (a [`BatchPolicy::with_executor`]
    /// override still takes precedence per batch).
    pub fn with_executor(mut self, executor: Executor) -> Self {
        self.executor = executor;
        self
    }

    /// Installs the observability handle into the shared runtime's
    /// machine: every keyed session operation then emits lifecycle
    /// spans and attributed charges on the session's own track.
    pub fn install_obs(&self, obs: Obs) {
        self.rt.lock().sea.platform_mut().install_obs(obs);
    }

    /// Installs (or clears) a deterministic fault plan on the shared
    /// runtime. Only keyed (retry-policy) sessions are exposed to it;
    /// each job rolls faults against its own batch index, so serial
    /// and parallel runs of the same batch see identical injections.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.rt.lock().sea.set_fault_plan(plan);
    }

    /// Launches one session by hand, returning the typestate handle
    /// for step-by-step driving (outside any batch).
    ///
    /// # Errors
    ///
    /// Whatever [`EnhancedSea::slaunch`] raises.
    pub fn launch<'e>(
        &'e self,
        logic: &'e mut dyn PalLogic,
        input: &[u8],
        cpu: CpuId,
        index: usize,
    ) -> Result<Session<'e, Launched>, SeaError> {
        Session::start(&self.rt, logic, input, cpu, index)
    }

    /// Runs a batch of jobs to completion across the worker pool under
    /// `policy` and collects results in job-index order.
    ///
    /// Job *i* is statically assigned to worker `i % workers` (across
    /// relaunch epochs too, so a relaunched session lands on the same
    /// CPU as crash-free); the shared runtime is locked per
    /// *operation*, so sessions genuinely overlap.
    ///
    /// # Errors
    ///
    /// Only infrastructure failures surface as `Err` — on the plain
    /// path the first per-job error (by job index), under a retry
    /// policy per-session fault deaths are in-band
    /// [`SessionResult::Killed`] values, and an unreadable journal is
    /// [`SeaError::JournalCorrupt`].
    pub fn run(
        &mut self,
        jobs: Vec<ConcurrentJob>,
        policy: &BatchPolicy,
    ) -> Result<BatchOutcome, SeaError> {
        self.run_indexed(jobs.into_iter().enumerate().collect(), policy)
    }

    /// Runs a batch whose jobs carry explicit indices, in any
    /// submission order.
    ///
    /// The indices must form a permutation of `0..jobs.len()`; job *i*
    /// keeps its static CPU assignment (`i % workers`) and its slot in
    /// [`BatchOutcome::sessions`] regardless of the order jobs appear
    /// in the vector. The engine sorts pending work by index before
    /// each epoch, so the outcome is *structurally* invariant to
    /// submission order — the permutation property test in
    /// `tests/proptest_invariants.rs` pins this.
    ///
    /// # Errors
    ///
    /// Everything [`SessionEngine::run`] raises, plus
    /// [`SeaError::EngineFault`] when the indices are not a permutation
    /// of `0..jobs.len()`.
    pub fn run_indexed(
        &mut self,
        jobs: Vec<(usize, ConcurrentJob)>,
        policy: &BatchPolicy,
    ) -> Result<BatchOutcome, SeaError> {
        let n_jobs = jobs.len();
        let mut seen = vec![false; n_jobs];
        for (i, _) in &jobs {
            if *i >= n_jobs || std::mem::replace(&mut seen[*i], true) {
                return Err(SeaError::EngineFault(
                    "job indices must form a permutation of 0..jobs.len()",
                ));
            }
        }
        let workers = self.workers;
        let exec = policy.executor().unwrap_or(self.executor);

        // Every batch sets the epoch state at its start, so an aborted
        // batch cannot leak into this one. A durable batch also deletes
        // the checkpoint an earlier batch left in NVRAM, head and log:
        // recovery must restore this batch's sessions, never another's,
        // and its first checkpoint starts a fresh log. One obs
        // handle serves the whole batch (it survives power cycles), so
        // the hot path never locks the runtime just to reach the sink.
        let obs = {
            let mut rt = self.rt.lock();
            rt.durable = policy
                .durability()
                .map(|plan| DurableEpoch::new(plan.clone(), policy.group_commit()));
            if rt.durable.is_some() {
                let tpm = rt.sea.platform_mut().tpm_mut().ok_or(SeaError::NoTpm)?;
                tpm.nvram_mut().delete_blob(JOURNAL_NV_INDEX);
                tpm.nvram_mut().delete_blob(JOURNAL_LOG_NV_INDEX);
            }
            rt.sea.platform().machine().obs().clone()
        };
        let mut cpu_busy = vec![SimDuration::ZERO; workers];
        let mut final_slots: Vec<Option<Result<SessionResult, SeaError>>> =
            (0..n_jobs).map(|_| None).collect();
        let mut pending: Vec<(usize, ConcurrentJob)> = jobs;
        let mut resets = 0u32;
        let mut committed: Vec<u64> = Vec::new();
        let mut relaunched: Vec<u64> = Vec::new();
        let mut recovery_latency = SimDuration::ZERO;

        let mode = match (policy.retry(), policy.durability()) {
            (retry, Some(_)) => WorkerMode::Durable {
                retry: retry.unwrap_or_default(),
            },
            (Some(retry), None) => WorkerMode::Recovered { retry },
            (None, None) => WorkerMode::Plain,
        };
        let (attempts, journal_overhead) = loop {
            // Sorting pending work by index makes the epoch's schedule
            // a pure function of *which* jobs are pending, never the
            // order they were submitted or re-queued in.
            pending.sort_unstable_by_key(|(i, _)| *i);
            let pending_epoch = std::mem::take(&mut pending);
            let (attempts, busy) = match exec {
                Executor::ThreadPool => {
                    threadpool::run_epoch(workers, n_jobs, pending_epoch, &self.rt, &obs, mode)?
                }
                Executor::DiscreteEvent => {
                    des::run_epoch(workers, n_jobs, pending_epoch, &self.rt, &obs, mode)?
                }
            };
            for (k, b) in busy.into_iter().enumerate() {
                cpu_busy[k] += b;
            }

            let mut guard = self.rt.lock();
            let Runtime { sea, durable } = &mut *guard;
            let Some(epoch) = durable.as_mut().filter(|epoch| epoch.crashed) else {
                // Clean epoch: every surviving attempt is final.
                let overhead = durable.take().map(|epoch| epoch.journal_overhead);
                break (attempts, overhead.unwrap_or(SimDuration::ZERO));
            };

            // Power loss (durable mode only). Reboot the platform, then
            // rebuild the world from the sealed journal alone — every
            // in-memory result past the last checkpoint is discarded,
            // the unsealed group-commit buffer included, exactly as a
            // real crash would lose it.
            resets += 1;
            obs.add("journal.resets", 1);
            recovery_latency += sea.power_cycle();
            let tpm = sea.platform_mut().tpm_mut().ok_or(SeaError::NoTpm)?;
            let recovered = match SessionJournal::recover(tpm)? {
                Some(opened) => {
                    recovery_latency += opened.elapsed;
                    obs.leaf_on(PLATFORM_TRACK, Layer::Tpm, "journal.unseal", opened.elapsed);
                    opened.value
                }
                None => SessionJournal::new(),
            };
            let restored = recovered.restore()?;
            committed = restored.iter().map(|(key, _)| *key).collect();
            final_slots.fill(None);
            for (key, session) in restored {
                let slot = final_slots
                    .get_mut(key as usize)
                    .ok_or(SeaError::JournalCorrupt("session key out of range"))?;
                *slot = Some(Ok(session));
            }
            epoch.journal = recovered;
            epoch.crashed = false;
            epoch.pending_seals = 0;

            // Everything without a checkpointed terminal relaunches.
            relaunched.clear();
            for (i, attempt) in attempts.into_iter().enumerate() {
                let job = match attempt {
                    Some(Attempt::Torn(job) | Attempt::Volatile(_, job)) => job,
                    Some(Attempt::Committed(_) | Attempt::Done(_)) | None => continue,
                };
                if final_slots[i].is_none() {
                    relaunched.push(i as u64);
                    pending.push((i, job));
                }
            }
            obs.add("journal.relaunches", pending.len() as u64);
            for (i, _) in &pending {
                sea.record(TraceEvent::SessionRelaunched { session: *i as u64 });
            }
        };

        for (i, attempt) in attempts.into_iter().enumerate() {
            match attempt {
                Some(Attempt::Done(result)) => final_slots[i] = Some(result),
                Some(Attempt::Committed(s) | Attempt::Volatile(s, _)) => {
                    final_slots[i] = Some(Ok(s))
                }
                Some(Attempt::Torn(_)) => {
                    return Err(SeaError::EngineFault("torn session in a clean epoch"))
                }
                None => {}
            }
        }
        let mut sessions = Vec::with_capacity(n_jobs);
        for slot in final_slots {
            let result = slot.ok_or(SeaError::EngineFault("job result slot left unfilled"))?;
            sessions.push(result?);
        }
        // Reboots and checkpoint seals serialize against everything, so
        // they extend the batch beyond the busiest CPU's overlap.
        let wall = cpu_busy.iter().copied().max().unwrap_or(SimDuration::ZERO)
            + recovery_latency
            + journal_overhead;
        Ok(BatchOutcome {
            sessions,
            cpu_busy,
            wall,
            resets,
            committed,
            relaunched,
            recovery_latency,
            journal_overhead,
        })
    }

    /// Tears the engine down, returning the shared runtime (e.g. to
    /// inspect the platform's final state in tests).
    pub fn into_inner(self) -> EnhancedSea {
        self.rt
            .0
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .sea
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pal::{FnPal, PalOutcome};
    use sea_hw::Platform;
    use sea_tpm::KeyStrength;

    #[test]
    fn engine_lock_rides_through_poison() {
        let platform = SecurePlatform::new(Platform::recommended(1), KeyStrength::Demo512, b"lock");
        let engine = SessionEngine::<Slaunch>::new(platform, 1).unwrap();
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = engine.rt.lock();
            panic!("poison the engine lock");
        }));
        assert!(poisoned.is_err());
        let mut pal = FnPal::new("after", |_| Ok(PalOutcome::Exit(b"ok".to_vec())));
        let session = engine.launch(&mut pal, b"", CpuId(0), 0).unwrap();
        let Stepped::Exited(sealed) = session.step().unwrap() else {
            panic!("the PAL exits without yielding");
        };
        assert_eq!(sealed.quote_and_free(b"nonce").unwrap().0.output, b"ok");
    }
}
