//! Crash-point property suite for the crash-consistent durable engine.
//!
//! The contract under test: take a 16-session reference batch under a
//! fault-injecting (but fatal-free) plan, record how many trace events
//! the crash-free run emits, then re-run the batch through
//! [`SessionEngine::run`] under a durable policy with the power cord
//! yanked at **every**
//! trace-event boundary. At every cut point the batch must finish with
//! sessions byte-identical to the crash-free run, no Exclusive sePCR or
//! protected page left behind, `committed + relaunched = jobs` for the
//! recovery epoch, and an NVRAM checkpoint whose sealed head unseals,
//! whose log matches that head, and which replays every terminal —
//! deterministically at any worker count.
//!
//! `SEA_CRASH_SEED` selects the fault tape the reference batch replays
//! (scripts/ci.sh pins one).

use sea_core::{
    BatchOutcome, BatchPolicy, ConcurrentJob, FnPal, PalOutcome, RetryPolicy, SecurePlatform,
    SessionEngine, SessionJournal, SessionResult, Slaunch,
};
use sea_hw::{CpuId, FaultPlan, Platform, ResetPlan, SimDuration, TraceEvent};
use sea_tpm::KeyStrength;

const JOBS: usize = 16;
const WORKERS: usize = 4;

fn engine(workers: usize) -> SessionEngine<Slaunch> {
    let platform = SecurePlatform::new(
        Platform::recommended(WORKERS as u16),
        KeyStrength::Demo512,
        b"crash",
    );
    SessionEngine::new(platform, workers).expect("pool fits platform")
}

/// The reference fault plan: transient-only (no kills), hot enough that
/// every fault class — TPM transport, memory denial, timer expiry —
/// lands somewhere in a 16-session batch, so the crash sweep cuts
/// through retries and preemptions, not just clean completions.
fn fault_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_tpm_rate(6000)
        .with_mem_rate(6000)
        .with_timer_rate(6000)
        .with_fatal_ratio(0)
}

fn crash_seed() -> u64 {
    std::env::var("SEA_CRASH_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7)
}

/// Jobs that yield twice, so suspended sessions are live when the plug
/// is pulled, not just launching or quoting ones. The step counter
/// lives in the PAL's in-region state, not in captured host state: a
/// platform reset evaporates the region, so a relaunched session
/// restarts from step one exactly as real restartable PAL logic must.
fn batch() -> Vec<ConcurrentJob> {
    (0..JOBS)
        .map(|i| {
            ConcurrentJob::new(
                Box::new(FnPal::new(&format!("crash-{i}"), move |ctx| {
                    ctx.work(SimDuration::from_us(40 * (1 + (i as u64 % 4))));
                    let done = ctx.state().first().copied().unwrap_or(0) + 1;
                    ctx.set_state(vec![done]);
                    if done == 3 {
                        Ok(PalOutcome::Exit(i.to_le_bytes().to_vec()))
                    } else {
                        Ok(PalOutcome::Yield)
                    }
                })),
                b"",
            )
        })
        .collect()
}

/// Clears the worker-assignment field for cross-worker-count
/// comparisons (the CPU a job lands on is a function of the worker
/// count, not of crash recovery).
fn normalize(mut sessions: Vec<SessionResult>) -> Vec<SessionResult> {
    for s in &mut sessions {
        if let SessionResult::Quoted { result, .. } = s {
            result.cpu = CpuId(0);
        }
    }
    sessions
}

/// The crash-free reference: sessions plus the total number of trace
/// events the batch emits (the cut points the sweep enumerates).
fn reference(seed: u64) -> (Vec<SessionResult>, u64) {
    let mut pool = engine(WORKERS);
    pool.set_fault_plan(Some(fault_plan(seed)));
    let out = pool
        .run(
            batch(),
            &BatchPolicy::plain().with_retry(RetryPolicy::default()),
        )
        .expect("reference batch runs");
    assert_eq!(
        out.quoted(),
        JOBS,
        "seed {seed}: the reference plan must be transient-only"
    );
    let sea = pool.into_inner();
    let total = sea.platform().machine().trace().recorded();
    assert!(
        total > 0,
        "seed {seed}: the reference plan must inject something to cut against"
    );
    (out.sessions, total)
}

/// Runs the durable batch with the cord yanked after `cut` trace events
/// and checks the full crash-point contract. Returns the outcome for
/// caller-side comparisons.
fn check_cut(seed: u64, workers: usize, cut: u64, reference: &[SessionResult]) -> BatchOutcome {
    let mut pool = engine(workers);
    pool.set_fault_plan(Some(fault_plan(seed)));
    let d = pool
        .run(
            batch(),
            &BatchPolicy::plain()
                .with_retry(RetryPolicy::default())
                .with_durability(ResetPlan::reset_free().with_cut_after_events(cut)),
        )
        .unwrap_or_else(|e| panic!("seed {seed} cut {cut}: batch aborted: {e}"));

    // Every session is accounted for and byte-identical to the
    // crash-free run — same outputs, same reports, same quotes.
    assert_eq!(
        d.quoted() + d.degraded() + d.killed(),
        JOBS,
        "seed {seed} cut {cut}: session lost"
    );
    assert_eq!(
        normalize(d.sessions.clone()),
        normalize(reference.to_vec()),
        "seed {seed} cut {cut}: sessions diverged from the crash-free run"
    );

    // The reset ledger balances: a cut inside the batch fires exactly
    // one reset, and every session is then either restored from the
    // journal or relaunched; a cut past the last event never fires.
    if d.resets > 0 {
        assert_eq!(d.resets, 1, "seed {seed} cut {cut}: reset-free plan");
        assert_eq!(
            d.committed.len() + d.relaunched.len(),
            JOBS,
            "seed {seed} cut {cut}: committed {:?} + relaunched {:?}",
            d.committed,
            d.relaunched
        );
        assert!(d.recovery_latency >= sea_hw::RESET_REBOOT_COST);
    } else {
        assert!(d.committed.is_empty() && d.relaunched.is_empty());
        assert_eq!(d.recovery_latency, SimDuration::ZERO);
    }

    // Nothing leaked across the crash: every sePCR is Free again and no
    // page is still protected.
    let mut sea = pool.into_inner();
    let tpm = sea.platform().tpm().expect("tpm");
    assert_eq!(
        tpm.sepcrs().free_count(),
        tpm.sepcrs().count(),
        "seed {seed} cut {cut}: leaked an Exclusive sePCR"
    );
    let (_, cpus_pages, none_pages) = sea.platform().machine().controller().state_census();
    assert_eq!(
        (cpus_pages, none_pages),
        (0, 0),
        "seed {seed} cut {cut}: leaked protected pages"
    );
    if d.resets > 0 {
        let trace = sea.platform().machine().trace();
        assert!(trace
            .iter()
            .any(|(_, e)| matches!(e, TraceEvent::PlatformReset)));
    }

    // The final checkpoint is intact: its head unseals, its log matches
    // the head and parses, it has no torn entry, and it replays every
    // terminal session.
    let journal = SessionJournal::recover(sea.platform_mut().tpm_mut().expect("tpm"))
        .unwrap_or_else(|e| panic!("seed {seed} cut {cut}: checkpoint corrupt: {e}"))
        .unwrap_or_else(|| panic!("seed {seed} cut {cut}: checkpoint missing"))
        .value;
    assert!(journal.torn().is_empty(), "seed {seed} cut {cut}");
    assert_eq!(
        journal.restore().expect("journal restores").len(),
        JOBS,
        "seed {seed} cut {cut}: checkpoint is missing terminals"
    );
    d
}

/// The tentpole property: cut at **every** trace-event boundary of the
/// reference batch (and one past the end, where the cut never lands)
/// and recover cleanly every time.
#[test]
fn crash_point_sweep_every_event_boundary_recovers() {
    let seed = crash_seed();
    let (reference, total) = reference(seed);
    let mut fired = 0u32;
    for cut in 0..=(total + 1) {
        let d = check_cut(seed, WORKERS, cut, &reference);
        // Cuts inside the crash-free trace always land; the one past
        // the end must not.
        if cut <= total {
            assert_eq!(d.resets, 1, "seed {seed} cut {cut} of {total}: no reset");
            fired += 1;
        } else {
            assert_eq!(
                d.resets, 0,
                "seed {seed} cut {cut} of {total}: phantom reset"
            );
        }
    }
    assert_eq!(fired, total as u32 + 1);
}

/// Group size used by the group-commit sweeps: deliberately coprime to
/// the batch size so the final group is partial (its commits stay
/// buffered as `Volatile` until the epoch ends).
const GROUP: usize = 3;

/// Runs the durable batch under group commit with the cord yanked after
/// `cut` trace events. The group-commit contract is the crash-point
/// contract minus the full-checkpoint clause: buffered commits are
/// volatile by design, so the final NVRAM seal may trail the batch —
/// but sessions must still be byte-identical to the crash-free run,
/// the recovery ledger must balance, and nothing may leak.
fn check_group_cut(
    seed: u64,
    workers: usize,
    group: usize,
    cut: u64,
    reference: &[SessionResult],
) -> BatchOutcome {
    let mut pool = engine(workers);
    pool.set_fault_plan(Some(fault_plan(seed)));
    let d = pool
        .run(
            batch(),
            &BatchPolicy::plain()
                .with_retry(RetryPolicy::default())
                .with_durability(ResetPlan::reset_free().with_cut_after_events(cut))
                .with_group_commit(group),
        )
        .unwrap_or_else(|e| panic!("seed {seed} group {group} cut {cut}: batch aborted: {e}"));

    assert_eq!(
        d.quoted() + d.degraded() + d.killed(),
        JOBS,
        "seed {seed} group {group} cut {cut}: session lost"
    );
    assert_eq!(
        normalize(d.sessions.clone()),
        normalize(reference.to_vec()),
        "seed {seed} group {group} cut {cut}: sessions diverged from the crash-free run"
    );

    if d.resets > 0 {
        assert_eq!(d.resets, 1, "seed {seed} group {group} cut {cut}");
        assert_eq!(
            d.committed.len() + d.relaunched.len(),
            JOBS,
            "seed {seed} group {group} cut {cut}: committed {:?} + relaunched {:?}",
            d.committed,
            d.relaunched
        );
        // The journal seals on exactly every `group`-th commit, so the
        // checkpoint the recovery restored from can only ever hold a
        // whole number of groups.
        assert_eq!(
            d.committed.len() % group,
            0,
            "seed {seed} group {group} cut {cut}: recovered a partial group {:?}",
            d.committed
        );
    } else {
        assert!(d.committed.is_empty() && d.relaunched.is_empty());
    }

    // No Exclusive sePCR or protected page survives the crash.
    let mut sea = pool.into_inner();
    let tpm = sea.platform().tpm().expect("tpm");
    assert_eq!(
        tpm.sepcrs().free_count(),
        tpm.sepcrs().count(),
        "seed {seed} group {group} cut {cut}: leaked an Exclusive sePCR"
    );
    let (_, cpus_pages, none_pages) = sea.platform().machine().controller().state_census();
    assert_eq!(
        (cpus_pages, none_pages),
        (0, 0),
        "seed {seed} group {group} cut {cut}: leaked protected pages"
    );

    // Whatever checkpoint the batch last sealed must still be intact:
    // its head unseals, its log matches the head and parses.
    if let Some(opened) = SessionJournal::recover(sea.platform_mut().tpm_mut().expect("tpm"))
        .unwrap_or_else(|e| panic!("seed {seed} group {group} cut {cut}: corrupt: {e}"))
    {
        let journal = opened.value;
        // Unlike seal-every-commit, the final checkpoint may carry torn
        // intents — sessions whose commits were still buffered past the
        // last seal — but the terminals it does hold must replay, and
        // only in whole groups (each seal lands on a `group`-th commit).
        let restored = journal
            .restore()
            .unwrap_or_else(|e| panic!("seed {seed} group {group} cut {cut}: no replay: {e}"));
        assert!(
            restored.len() <= JOBS && restored.len().is_multiple_of(group),
            "seed {seed} group {group} cut {cut}: checkpoint holds {} terminals",
            restored.len()
        );
    }
    d
}

/// Group-commit crash-point sweep: cut at **every** trace-event
/// boundary of the reference batch — including every boundary interior
/// to a batched NVRAM seal — and recover to the crash-free sessions
/// each time, with the commit ledger balancing in whole groups.
#[test]
fn group_commit_crash_sweep_every_event_boundary_recovers() {
    let seed = crash_seed();
    let (reference, total) = reference(seed);
    for cut in 0..=(total + 1) {
        let d = check_group_cut(seed, WORKERS, GROUP, cut, &reference);
        if cut <= total {
            assert_eq!(d.resets, 1, "seed {seed} cut {cut} of {total}: no reset");
        } else {
            assert_eq!(
                d.resets, 0,
                "seed {seed} cut {cut} of {total}: phantom reset"
            );
        }
    }
}

/// Without a crash, group commit is invisible: any group size yields
/// sessions byte-identical to seal-every-commit, at any worker count,
/// with every job quoted and no reset fired.
#[test]
fn group_commit_clean_run_matches_ungrouped() {
    let seed = crash_seed();
    let run = |workers: usize, group: usize| {
        let mut pool = engine(workers);
        pool.set_fault_plan(Some(fault_plan(seed)));
        let d = pool
            .run(
                batch(),
                &BatchPolicy::plain()
                    .with_retry(RetryPolicy::default())
                    .with_durability(ResetPlan::reset_free())
                    .with_group_commit(group),
            )
            .expect("clean durable batch runs");
        assert_eq!(d.quoted(), JOBS, "group {group}: session not quoted");
        assert_eq!(d.resets, 0, "group {group}: phantom reset");
        normalize(d.sessions)
    };
    let ungrouped = run(WORKERS, 1);
    for group in [2, GROUP, 4, JOBS, JOBS + 1] {
        assert_eq!(
            run(WORKERS, group),
            ungrouped,
            "group {group}: clean run diverged from seal-every-commit"
        );
    }
    assert_eq!(
        run(1, GROUP),
        ungrouped,
        "group {GROUP}: serial clean run diverged"
    );
}

/// Crash recovery is deterministic at any worker count: the same cut
/// yields the same sessions whether one worker or four drive the batch.
#[test]
fn crash_recovery_is_worker_count_invariant() {
    let seed = crash_seed();
    let (reference, total) = reference(seed);
    // A spread of cut points across the trace, including both edges.
    let cuts = [0, total / 4, total / 2, 3 * total / 4, total];
    for cut in cuts {
        let serial = check_cut(seed, 1, cut, &reference);
        let wide = check_cut(seed, WORKERS, cut, &reference);
        assert_eq!(
            normalize(serial.sessions),
            normalize(wide.sessions),
            "seed {seed} cut {cut}: serial and parallel recovery diverged"
        );
        assert_eq!(serial.resets, wide.resets);
    }
}
