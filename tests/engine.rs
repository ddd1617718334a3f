//! Unit-level suite for the unified `sea_core::engine` module.
//!
//! Everything here drives the engine through its public surface —
//! `SessionEngine::run` under each `BatchPolicy` composition and the
//! typestate `Session` by hand — so it lives with the other batch-level
//! suites rather than inside the crate. Legacy `SKINIT` sessions run
//! outside the engine, through `LegacySea`. The golden differential
//! suite (`golden_differential.rs`) builds on the contracts pinned here.

use sea_core::engine::{rate_per_sec, speedup};
use sea_core::{
    BatchPolicy, ConcurrentJob, Executor, FnPal, JobResult, LegacySea, PalOutcome, RetryPolicy,
    SeaError, SecurePlatform, SessionEngine, SessionJournal, SessionReport, SessionResult,
    SessionTally, Slaunch, Stepped,
};
use sea_hw::{
    CpuId, FaultPlan, Platform, ResetPlan, SimDuration, TraceEvent, RATE_DENOM, RESET_REBOOT_COST,
};
use sea_tpm::{KeyStrength, TpmError};

fn platform(n_cpus: u16) -> SecurePlatform {
    SecurePlatform::new(
        Platform::recommended(n_cpus),
        KeyStrength::Demo512,
        b"concurrent test",
    )
}

fn engine(n_cpus: u16, workers: usize) -> SessionEngine<Slaunch> {
    SessionEngine::new(platform(n_cpus), workers).unwrap()
}

fn jobs(n: usize, work_us: u64) -> Vec<ConcurrentJob> {
    (0..n)
        .map(|i| {
            ConcurrentJob::new(
                Box::new(FnPal::new(&format!("job-{i}"), move |ctx| {
                    ctx.work(SimDuration::from_us(work_us));
                    Ok(PalOutcome::Exit(vec![i as u8]))
                })),
                (i as u32).to_le_bytes(),
            )
        })
        .collect()
}

fn quoted(s: &SessionResult) -> &JobResult {
    match s {
        SessionResult::Quoted { result, .. } => result,
        other => panic!("expected Quoted, got {other:?}"),
    }
}

#[test]
fn shared_rate_math_handles_zero_wall() {
    assert_eq!(rate_per_sec(5, SimDuration::ZERO), 0.0);
    assert_eq!(speedup(SimDuration::ZERO, SimDuration::ZERO), 1.0);
    assert!((rate_per_sec(2, SimDuration::from_ms(500)) - 4.0).abs() < 1e-9);
    assert!((speedup(SimDuration::from_ms(400), SimDuration::from_ms(100)) - 4.0).abs() < 1e-9);
}

#[test]
fn tally_counts_every_terminal_variant() {
    let sessions = [
        SessionResult::Killed {
            job: 0,
            attempts: 1,
            error: SeaError::NoTpm,
            wasted: SimDuration::ZERO,
        },
        SessionResult::Degraded {
            job: 1,
            output: vec![],
            report: SessionReport::default(),
        },
    ];
    let tally = SessionTally::of(&sessions);
    assert_eq!((tally.quoted, tally.degraded, tally.killed), (0, 1, 1));
    assert_eq!(tally.completed(), 1);
}

#[test]
fn rejects_more_workers_than_cpus() {
    assert!(matches!(
        SessionEngine::<Slaunch>::new(platform(2), 3),
        Err(SeaError::NotEnoughCpus {
            requested: 3,
            available: 2
        })
    ));
    assert!(SessionEngine::<Slaunch>::new(platform(2), 0).is_err());
}

#[test]
fn outputs_arrive_in_job_index_order() {
    let mut engine = engine(4, 4);
    let out = engine.run(jobs(13, 5), &BatchPolicy::plain()).unwrap();
    assert_eq!(out.sessions.len(), 13);
    for (i, s) in out.sessions.iter().enumerate() {
        let r = quoted(s);
        assert_eq!(r.output, vec![i as u8]);
        assert_eq!(r.cpu, CpuId((i % 4) as u16));
    }
}

#[test]
fn batch_results_match_single_worker_byte_for_byte() {
    // The determinism contract: 1-worker and 4-worker runs of the
    // same batch produce identical outputs, per-job virtual costs,
    // and quotes — only the CPU a job lands on differs.
    let run = |workers: usize| {
        let mut engine = engine(4, workers);
        engine.run(jobs(12, 40), &BatchPolicy::plain()).unwrap()
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial.sessions.len(), parallel.sessions.len());
    for (s, p) in serial.sessions.iter().zip(&parallel.sessions) {
        match (s, p) {
            (
                SessionResult::Quoted {
                    result: sr,
                    quote: sq,
                    ..
                },
                SessionResult::Quoted {
                    result: pr,
                    quote: pq,
                    ..
                },
            ) => {
                assert_eq!(sr.output, pr.output);
                assert_eq!(sr.report, pr.report);
                assert_eq!(sr.quote_cost, pr.quote_cost);
                assert_eq!(sq, pq);
            }
            other => panic!("expected Quoted pair, got {other:?}"),
        }
    }
    assert_eq!(serial.aggregate(), parallel.aggregate());
}

#[test]
fn parallel_wall_time_beats_serial() {
    let mut serial = engine(4, 1);
    let mut parallel = engine(4, 4);
    let s = serial.run(jobs(8, 100), &BatchPolicy::plain()).unwrap();
    let p = parallel.run(jobs(8, 100), &BatchPolicy::plain()).unwrap();
    // Same total virtual work...
    assert_eq!(s.aggregate(), p.aggregate());
    // ...but 4 CPUs overlap it: 8 equal jobs → 2 per CPU → 4×.
    assert_eq!(s.wall, s.aggregate());
    assert_eq!(p.wall, p.aggregate() / 4);
    assert!((p.speedup() - 4.0).abs() < 1e-9);
    assert!(p.throughput_per_sec() > s.throughput_per_sec());
}

#[test]
fn engine_state_is_clean_after_batch() {
    let mut engine = engine(4, 4);
    engine.run(jobs(9, 10), &BatchPolicy::plain()).unwrap();
    let sea = engine.into_inner();
    // Every sePCR came back to Free and every page back to ALL.
    let tpm = sea.platform().tpm().expect("tpm");
    assert_eq!(tpm.sepcrs().free_count(), tpm.sepcrs().count());
    let (_, cpus_pages, none_pages) = sea.platform().machine().controller().state_census();
    assert_eq!((cpus_pages, none_pages), (0, 0));
}

#[test]
fn fault_free_recovered_batch_matches_plain_batch() {
    let mut plain = engine(4, 4);
    let p = plain.run(jobs(8, 20), &BatchPolicy::plain()).unwrap();

    let mut recovered = engine(4, 4);
    recovered.set_fault_plan(Some(FaultPlan::fault_free()));
    let r = recovered
        .run(
            jobs(8, 20),
            &BatchPolicy::plain().with_retry(RetryPolicy::default()),
        )
        .unwrap();

    assert_eq!(r.quoted(), 8);
    assert_eq!(r.killed(), 0);
    for s in &r.sessions {
        match s {
            SessionResult::Quoted {
                retries,
                recovery_cost,
                ..
            } => {
                assert_eq!(*retries, 0);
                assert_eq!(*recovery_cost, SimDuration::ZERO);
            }
            other => panic!("expected Quoted, got {other:?}"),
        }
    }
    // Keyed (fault-exposed) and unkeyed driving are byte-identical
    // when no fault fires — including the quotes.
    assert_eq!(p.sessions, r.sessions);
    assert_eq!(p.wall, r.wall);
    assert_eq!(p.cpu_busy, r.cpu_busy);
}

#[test]
fn transient_faults_are_retried_and_nothing_leaks() {
    let mut pool = engine(4, 4);
    pool.set_fault_plan(Some(
        FaultPlan::new(7)
            .with_tpm_rate(6000)
            .with_mem_rate(6000)
            .with_timer_rate(6000)
            .with_fatal_ratio(0),
    ));
    let out = pool
        .run(
            jobs(16, 10),
            &BatchPolicy::plain().with_retry(RetryPolicy::default()),
        )
        .unwrap();
    assert_eq!(out.sessions.len(), 16);
    // Every retryable fault was absorbed: with fatal_ratio 0 and a
    // 4-retry budget, this seed completes the whole batch.
    assert_eq!(out.killed(), 0);
    assert_eq!(out.quoted(), 16);
    let total_retries: u32 = out
        .sessions
        .iter()
        .map(|s| match s {
            SessionResult::Quoted { retries, .. } => *retries,
            _ => 0,
        })
        .sum();
    assert!(total_retries > 0, "seed 7 at ~9% rates must inject");

    // Recovery reclaimed everything: sePCRs all Free, pages all ALL.
    let sea = pool.into_inner();
    let tpm = sea.platform().tpm().expect("tpm");
    assert_eq!(tpm.sepcrs().free_count(), tpm.sepcrs().count());
    let (_, cpus_pages, none_pages) = sea.platform().machine().controller().state_census();
    assert_eq!((cpus_pages, none_pages), (0, 0));
}

#[test]
fn fatal_faults_kill_cleanly_without_leaking() {
    let mut pool = engine(4, 4);
    pool.set_fault_plan(Some(
        FaultPlan::new(42)
            .with_tpm_rate(20_000)
            .with_fatal_ratio(RATE_DENOM),
    ));
    let out = pool
        .run(
            jobs(16, 10),
            &BatchPolicy::plain().with_retry(RetryPolicy::default()),
        )
        .unwrap();
    assert!(out.killed() > 0, "seed 42 at ~30% fatal rate must kill");
    assert_eq!(out.killed() + out.quoted(), 16);
    for s in &out.sessions {
        match s {
            SessionResult::Killed {
                error, attempts, ..
            } => {
                // Fatal transport faults are not retried.
                assert_eq!(*attempts, 1);
                assert!(matches!(
                    error,
                    SeaError::Tpm(TpmError::TransportFault { retryable: false })
                ));
            }
            SessionResult::Quoted { retries, .. } => assert_eq!(*retries, 0),
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    let sea = pool.into_inner();
    let tpm = sea.platform().tpm().expect("tpm");
    assert_eq!(tpm.sepcrs().free_count(), tpm.sepcrs().count());
    let (_, cpus_pages, none_pages) = sea.platform().machine().controller().state_census();
    assert_eq!((cpus_pages, none_pages), (0, 0));
    // Kills left their mark in the hardware trace.
    assert!(sea
        .platform()
        .machine()
        .trace()
        .iter()
        .any(|(_, e)| matches!(e, TraceEvent::SessionKilled { .. })));
}

#[test]
fn durable_batch_without_resets_matches_recovered_and_checkpoints() {
    let mut plain = engine(4, 4);
    plain.set_fault_plan(Some(FaultPlan::fault_free()));
    let r = plain
        .run(
            jobs(8, 20),
            &BatchPolicy::plain().with_retry(RetryPolicy::default()),
        )
        .unwrap();

    let mut pool = engine(4, 4);
    pool.set_fault_plan(Some(FaultPlan::fault_free()));
    let d = pool
        .run(
            jobs(8, 20),
            &BatchPolicy::plain()
                .with_retry(RetryPolicy::default())
                .with_durability(ResetPlan::reset_free()),
        )
        .unwrap();

    assert_eq!(d.resets, 0);
    assert!(d.committed.is_empty() && d.relaunched.is_empty());
    assert_eq!(d.recovery_latency, SimDuration::ZERO);
    assert_eq!(d.sessions, r.sessions);
    assert_eq!(d.cpu_busy, r.cpu_busy);
    // Checkpointing is the only wall-time delta.
    assert!(d.journal_overhead > SimDuration::ZERO);
    assert_eq!(d.wall, r.wall + d.journal_overhead);

    // The final checkpoint sits in NVRAM and replays every session.
    let mut sea = pool.into_inner();
    let tpm = sea.platform_mut().tpm_mut().unwrap();
    let journal = SessionJournal::recover(tpm)
        .unwrap()
        .expect("checkpoint")
        .value;
    assert_eq!(journal.restore().unwrap().len(), 8);
    assert!(journal.torn().is_empty());
}

#[test]
fn durable_batch_survives_an_event_cut() {
    let reference = {
        let mut pool = engine(4, 4);
        pool.set_fault_plan(Some(FaultPlan::fault_free()));
        pool.run(
            jobs(8, 20),
            &BatchPolicy::plain().with_retry(RetryPolicy::default()),
        )
        .unwrap()
        .sessions
    };

    let mut pool = engine(4, 4);
    pool.set_fault_plan(Some(FaultPlan::fault_free()));
    // A fault-free batch records no trace events, so cut at 0: the
    // cord is yanked at the very first commit gate, before anything
    // reaches NVRAM — the whole batch must relaunch.
    let d = pool
        .run(
            jobs(8, 20),
            &BatchPolicy::plain()
                .with_retry(RetryPolicy::default())
                .with_durability(ResetPlan::reset_free().with_cut_after_events(0)),
        )
        .unwrap();

    assert_eq!(d.resets, 1);
    assert!(d.committed.is_empty());
    assert_eq!(d.relaunched.len(), 8);
    assert!(d.recovery_latency >= RESET_REBOOT_COST);
    // The recovered batch is byte-identical to the crash-free run.
    assert_eq!(d.sessions, reference);

    // Nothing leaked across the reset, and the trace tells the story.
    let sea = pool.into_inner();
    let tpm = sea.platform().tpm().expect("tpm");
    assert_eq!(tpm.sepcrs().free_count(), tpm.sepcrs().count());
    let (_, cpus_pages, none_pages) = sea.platform().machine().controller().state_census();
    assert_eq!((cpus_pages, none_pages), (0, 0));
    let trace = sea.platform().machine().trace();
    assert!(trace
        .iter()
        .any(|(_, e)| matches!(e, TraceEvent::PlatformReset)));
    assert!(trace
        .iter()
        .any(|(_, e)| matches!(e, TraceEvent::SessionRelaunched { .. })));
}

#[test]
fn durable_batch_with_rate_resets_terminates_within_budget() {
    let mut pool = engine(4, 4);
    pool.set_fault_plan(Some(FaultPlan::fault_free()));
    let d = pool
        .run(
            jobs(12, 10),
            &BatchPolicy::plain()
                .with_retry(RetryPolicy::default())
                .with_durability(
                    ResetPlan::new(9)
                        .with_reset_rate(RATE_DENOM / 3)
                        .with_max_resets(3),
                ),
        )
        .unwrap();
    assert!(d.resets >= 1, "one-in-three rate over 12 gates must fire");
    assert!(d.resets <= 3, "budget caps the reset count");
    assert_eq!(d.quoted() + d.degraded() + d.killed(), 12);
    assert_eq!(d.quoted(), 12);
    for (i, s) in d.sessions.iter().enumerate() {
        let r = quoted(s);
        assert_eq!(r.output, vec![i as u8]);
        assert_eq!(r.cpu, CpuId((i % 4) as u16));
    }
}

#[test]
fn durability_defaults_the_retry_policy() {
    // `with_durability` alone implies keyed driving under
    // `RetryPolicy::default()` — identical to spelling it out.
    let run = |policy: BatchPolicy| {
        let mut pool = engine(4, 2);
        pool.set_fault_plan(Some(FaultPlan::fault_free()));
        pool.run(jobs(6, 15), &policy).unwrap()
    };
    let implicit = run(BatchPolicy::plain().with_durability(ResetPlan::reset_free()));
    let explicit = run(BatchPolicy::plain()
        .with_retry(RetryPolicy::default())
        .with_durability(ResetPlan::reset_free()));
    assert_eq!(implicit, explicit);
}

#[test]
fn durable_batch_never_restores_an_earlier_batchs_checkpoint() {
    // NVRAM outlives batches. A second durable batch that loses power
    // before its first seal must relaunch its own sessions, not restore
    // the first batch's checkpoint as its own.
    let batch = |base: u8| -> Vec<ConcurrentJob> {
        (0..4u8)
            .map(|i| {
                ConcurrentJob::new(
                    Box::new(FnPal::new("batch", move |_| {
                        Ok(PalOutcome::Exit(vec![base + i]))
                    })),
                    [],
                )
            })
            .collect()
    };
    for executor in [Executor::ThreadPool, Executor::DiscreteEvent] {
        let mut pool = engine(4, 4).with_executor(executor);
        pool.set_fault_plan(Some(FaultPlan::fault_free()));
        let first = pool
            .run(
                batch(0),
                &BatchPolicy::plain().with_durability(ResetPlan::reset_free()),
            )
            .unwrap();
        assert_eq!(first.quoted(), 4, "{executor:?}");
        let second = pool
            .run(
                batch(10),
                &BatchPolicy::plain()
                    .with_durability(ResetPlan::reset_free().with_cut_after_events(0)),
            )
            .unwrap();
        assert_eq!(second.resets, 1, "{executor:?}");
        assert!(second.committed.is_empty(), "{executor:?}");
        assert_eq!(second.relaunched, [0, 1, 2, 3], "{executor:?}");
        let outputs: Vec<&[u8]> = second
            .sessions
            .iter()
            .map(|s| quoted(s).output.as_slice())
            .collect();
        assert_eq!(outputs, [[10], [11], [12], [13]], "{executor:?}");
    }

    // Now the power fails after the second batch's first checkpoint:
    // recovery must find that head over a log of this batch's frame
    // alone, where a first-batch log left in NVRAM would make it refuse
    // the log as corrupt. One worker commits in job order, and the plan
    // cuts power at session 1's commit gate and nowhere else.
    let plan = (0..)
        .map(|seed| {
            ResetPlan::new(seed)
                .with_reset_rate(RATE_DENOM / 2)
                .with_max_resets(1)
        })
        .find(|plan| !plan.roll_power_loss(0, 0) && plan.roll_power_loss(0, 1))
        .expect("some seed fails at session 1's gate only");
    for executor in [Executor::ThreadPool, Executor::DiscreteEvent] {
        let mut pool = engine(4, 1).with_executor(executor);
        pool.set_fault_plan(Some(FaultPlan::fault_free()));
        let first = pool
            .run(
                batch(0),
                &BatchPolicy::plain().with_durability(ResetPlan::reset_free()),
            )
            .unwrap();
        assert_eq!(first.quoted(), 4, "{executor:?}");
        let second = pool
            .run(
                batch(10),
                &BatchPolicy::plain().with_durability(plan.clone()),
            )
            .unwrap();
        assert_eq!(second.resets, 1, "{executor:?}");
        assert_eq!(second.committed, [0], "{executor:?}");
        assert_eq!(second.relaunched, [1, 2, 3], "{executor:?}");
        let outputs: Vec<&[u8]> = second
            .sessions
            .iter()
            .map(|s| quoted(s).output.as_slice())
            .collect();
        assert_eq!(outputs, [[10], [11], [12], [13]], "{executor:?}");
    }
}

#[test]
fn shared_clock_reflects_batch_wall_time() {
    let mut pool = engine(2, 2);
    let outcome = pool.run(jobs(4, 50), &BatchPolicy::plain()).unwrap();
    // A plain batch has no reboot or checkpoint seal to serialize, so
    // its wall time is exactly the busiest CPU's summed busy time.
    let busiest = outcome.cpu_busy.iter().copied().max().unwrap();
    assert!(busiest > SimDuration::ZERO);
    assert_eq!(outcome.wall, busiest);
}

#[test]
fn typestate_session_drives_by_hand() {
    let engine = engine(2, 1);
    let mut yields = 0u8;
    let mut pal = FnPal::new("manual", move |ctx| {
        ctx.work(SimDuration::from_us(10));
        yields += 1;
        if yields < 3 {
            Ok(PalOutcome::Yield)
        } else {
            Ok(PalOutcome::Exit(b"stepped".to_vec()))
        }
    });
    let mut session = engine.launch(&mut pal, b"", CpuId(0), 0).unwrap();
    assert_eq!(session.index(), 0);
    assert_eq!(session.cpu(), CpuId(0));
    let sealed = loop {
        match session.step().unwrap() {
            Stepped::Exited(s) => break s,
            Stepped::Yielded(s) => session = s.resume().unwrap(),
        }
    };
    let (result, quote) = sealed.quote_and_free(b"manual nonce").unwrap();
    assert_eq!(result.output, b"stepped");
    assert!(result.quote_cost > SimDuration::ZERO);
    assert_eq!(quote.nonce(), b"manual nonce");

    // The retired session left the runtime clean.
    let sea = engine.into_inner();
    let tpm = sea.platform().tpm().expect("tpm");
    assert_eq!(tpm.sepcrs().free_count(), tpm.sepcrs().count());
    // Of the platform's 64 MiB of DRAM only the session's region took
    // host memory, and SFREE's erase of the state area, which starts on
    // the region's first page here, handed all of it back.
    assert_eq!(sea.platform().machine().memory().resident_pages(), 0);
}

#[test]
fn one_engine_quotes_far_more_sessions_than_fresh_regions() {
    // Default DRAM holds 5,440 of these three-page regions above the OS
    // image; past that, launches must reuse the regions retired sessions
    // released instead of failing with `RegionTooSmall`.
    let engine = engine(1, 1);
    for i in 0..20_000 {
        let mut pal = FnPal::new("long-lived", |_| Ok(PalOutcome::Exit(Vec::new())));
        let session = engine
            .launch(&mut pal, b"", CpuId(0), i)
            .unwrap_or_else(|e| panic!("launch {i}: {e}"));
        let Stepped::Exited(sealed) = session.step().unwrap() else {
            panic!("PAL must exit");
        };
        sealed.quote_and_free(&(i as u64).to_le_bytes()).unwrap();
    }
}

#[test]
fn typestate_kill_reclaims_the_session() {
    let engine = engine(2, 1);
    let mut pal = FnPal::new("doomed", |_| Ok(PalOutcome::Yield));
    let session = engine.launch(&mut pal, b"", CpuId(0), 0).unwrap();
    let suspended = match session.step().unwrap() {
        Stepped::Yielded(s) => s,
        Stepped::Exited(_) => panic!("PAL must yield"),
    };
    suspended.kill().unwrap();
    let sea = engine.into_inner();
    let tpm = sea.platform().tpm().expect("tpm");
    assert_eq!(tpm.sepcrs().free_count(), tpm.sepcrs().count());
    let (_, cpus_pages, none_pages) = sea.platform().machine().controller().state_census();
    assert_eq!((cpus_pages, none_pages), (0, 0));
}

#[test]
fn skinit_runs_the_legacy_lifecycle() {
    // Legacy sessions run outside the engine, through `LegacySea`:
    // `SKINIT` runs each PAL to completion, then the platform quotes
    // its static PCRs.
    let mut sea = LegacySea::new(platform(2)).unwrap();
    for i in 0..3u8 {
        let mut pal = FnPal::new(&format!("job-{i}"), move |ctx| {
            ctx.work(SimDuration::from_us(25));
            Ok(PalOutcome::Exit(vec![i]))
        });
        let done = sea.run_session(&mut pal, &[i]).unwrap();
        assert_eq!(done.output, Some(vec![i]));
        assert!(done.report.late_launch > SimDuration::ZERO);
        let quote = sea.quote(&[i]).unwrap();
        assert!(quote.elapsed > SimDuration::ZERO);
        let aik = sea.platform().tpm().expect("tpm").aik_public();
        assert!(quote.value.verify_signature(aik));
    }
}

#[test]
fn session_tally_completed_sums_quoted_and_degraded() {
    let tally = SessionTally {
        quoted: 3,
        degraded: 2,
        killed: 4,
    };
    assert_eq!(tally.completed(), 5);
    assert_eq!(SessionTally::default().completed(), 0);
    // From a live batch: everything quotes, nothing degrades or dies.
    let out = engine(2, 2)
        .run(jobs(4, 10), &BatchPolicy::plain())
        .unwrap();
    let tally = out.tally();
    assert_eq!((tally.quoted, tally.degraded, tally.killed), (4, 0, 0));
    assert_eq!(tally.completed(), 4);
}
