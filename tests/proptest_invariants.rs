//! Property-based tests of the hardware and protocol invariants: the
//! memory controller's access-table state machine, `EnhancedSea`'s PAL
//! region allocator, PCR chain algebra, and the sePCR life cycle, all
//! driven by random operation sequences decoded from the in-repo
//! harness's tapes.

mod common;

use common::{check, prop_assert, prop_assert_eq, prop_assert_ne, Tape};
use minimal_tcb::crypto::Sha1;
use minimal_tcb::hw::{
    AccessKind, CpuId, MemoryController, PageAccess, PageIndex, PageRange, Requester,
};
use minimal_tcb::tpm::{PcrBank, PcrIndex, PcrValue, SePcrBank, SePcrState};

const ARENA_PAGES: u32 = 64;

/// Case count for the hardware state-machine properties (matches the
/// original `ProptestConfig::with_cases(128)`).
const CASES: usize = 128;

/// Case count for the TPM-level properties that instantiate RSA keypairs
/// per case (original: 12).
const TPM_CASES: usize = 12;

/// Random operations against the memory controller.
#[derive(Debug, Clone)]
enum McOp {
    Protect { start: u32, count: u32, cpu: u16 },
    Suspend { start: u32, count: u32, cpu: u16 },
    Resume { start: u32, count: u32, cpu: u16 },
    Release { start: u32, count: u32 },
}

fn mc_op(t: &mut Tape) -> McOp {
    let start = t.range(0, ARENA_PAGES as usize) as u32;
    let count = t.range(1, 8) as u32;
    let cpu = t.range(0, 4) as u16;
    match t.range(0, 4) {
        0 => McOp::Protect { start, count, cpu },
        1 => McOp::Suspend { start, count, cpu },
        2 => McOp::Resume { start, count, cpu },
        _ => McOp::Release { start, count },
    }
}

#[test]
fn access_table_transitions_are_all_or_nothing() {
    check("access_table_transitions_are_all_or_nothing", CASES, |t| {
        let ops = t.vec(0, 40, mc_op);
        let mut mc = MemoryController::new(ARENA_PAGES);
        // Shadow model: what each page's state should be.
        let mut shadow = vec![PageAccess::All; ARENA_PAGES as usize];

        for op in ops {
            let apply = |shadow: &mut Vec<PageAccess>, range: PageRange, to: PageAccess| {
                for p in range.iter() {
                    shadow[p.0 as usize] = to;
                }
            };
            match op {
                McOp::Protect { start, count, cpu } => {
                    let range = PageRange::new(PageIndex(start), count.min(ARENA_PAGES - start));
                    if range.count == 0 {
                        continue;
                    }
                    let ok = range
                        .iter()
                        .all(|p| shadow[p.0 as usize] == PageAccess::All);
                    let result = mc.protect_for_cpu(range, CpuId(cpu));
                    prop_assert_eq!(result.is_ok(), ok);
                    if ok {
                        apply(&mut shadow, range, PageAccess::cpu(CpuId(cpu)));
                    }
                }
                McOp::Suspend { start, count, cpu } => {
                    let range = PageRange::new(PageIndex(start), count.min(ARENA_PAGES - start));
                    if range.count == 0 {
                        continue;
                    }
                    let ok = range
                        .iter()
                        .all(|p| shadow[p.0 as usize] == PageAccess::cpu(CpuId(cpu)));
                    let result = mc.suspend_pages(range, CpuId(cpu));
                    prop_assert_eq!(result.is_ok(), ok);
                    if ok {
                        apply(&mut shadow, range, PageAccess::None);
                    }
                }
                McOp::Resume { start, count, cpu } => {
                    let range = PageRange::new(PageIndex(start), count.min(ARENA_PAGES - start));
                    if range.count == 0 {
                        continue;
                    }
                    let ok = range
                        .iter()
                        .all(|p| shadow[p.0 as usize] == PageAccess::None);
                    let result = mc.resume_pages(range, CpuId(cpu));
                    prop_assert_eq!(result.is_ok(), ok);
                    if ok {
                        apply(&mut shadow, range, PageAccess::cpu(CpuId(cpu)));
                    }
                }
                McOp::Release { start, count } => {
                    let range = PageRange::new(PageIndex(start), count.min(ARENA_PAGES - start));
                    if range.count == 0 {
                        continue;
                    }
                    prop_assert!(mc.release_pages(range).is_ok());
                    apply(&mut shadow, range, PageAccess::All);
                }
            }
            // The real table always equals the shadow model, and access
            // checks agree with it.
            for p in 0..ARENA_PAGES {
                let page = PageIndex(p);
                prop_assert_eq!(mc.access(page), shadow[p as usize]);
                let cpu0_ok = mc
                    .check(Requester::Cpu(CpuId(0)), AccessKind::Read, page)
                    .is_ok();
                let expected = match shadow[p as usize] {
                    PageAccess::All => true,
                    PageAccess::Cpus(owners) => owners.contains(CpuId(0)),
                    PageAccess::None => false,
                };
                prop_assert_eq!(cpu0_ok, expected);
            }
        }
        Ok(())
    });
}

/// DRAM pages above the OS image in the allocator property: room for a
/// handful of PAL regions, so launches soon reuse released ones.
const PAL_DRAM_PAGES: u32 = 40;

/// Case count for the PAL-region property (one shared TPM keypair, so
/// cases are cheap enough for twice [`TPM_CASES`]).
const REGION_CASES: usize = 24;

#[test]
fn allocator_never_double_allocates() {
    use minimal_tcb::core::{
        EnhancedSea, FnPal, PalId, PalOutcome, PalStep, SeaError, SecurePlatform,
    };
    use minimal_tcb::hw::{Platform, PAGE_SIZE};
    use minimal_tcb::tpm::{KeyStrength, Tpm};

    // The OS image holds the low 64 pages; one TPM's keys serve every case.
    let platform = Platform::recommended(2)
        .with_mem_pages(64 + PAL_DRAM_PAGES)
        .with_sepcr_count(64);
    let tpm = Tpm::new(platform.tpm_kind, KeyStrength::Demo512, b"prop-regions");
    check("allocator_never_double_allocates", REGION_CASES, |t| {
        // (SLAUNCH or SKILL, image pages or victim, CPU)
        let ops = t.vec(1, 40, |t| (t.bool(), t.range(0, 8), t.range(0, 2) as u16));
        let mut sea =
            EnhancedSea::new(SecurePlatform::with_tpm(platform.clone(), tpm.clone())).unwrap();
        let dram = sea.platform().machine().memory().num_pages();
        let mut live: Vec<(PalId, PageRange)> = Vec::new();
        for (launch, n, cpu) in ops {
            if !launch {
                if !live.is_empty() {
                    let (id, _) = live.swap_remove(n % live.len());
                    sea.skill(id).map_err(|e| format!("SKILL failed: {e}"))?;
                }
                continue;
            }
            let mut pal =
                FnPal::new("region", |_| Ok(PalOutcome::Yield)).with_image_size(n * PAGE_SIZE);
            let id = match sea.slaunch(&mut pal, b"", CpuId(cpu), None) {
                Ok(id) => id,
                Err(SeaError::RegionTooSmall { .. }) => continue,
                Err(e) => return Err(format!("SLAUNCH of a {n}-page image failed: {e}")),
            };
            let region = sea.secb(id).unwrap().pages();
            prop_assert!(
                region.start.0 + region.count <= dram,
                "{} ends past DRAM's {} pages",
                region,
                dram
            );
            for (_, other) in &live {
                prop_assert!(
                    !region.overlaps(other),
                    "{} overlaps live {}",
                    region,
                    other
                );
            }
            // Suspended, the PAL frees its CPU and becomes SKILLable.
            prop_assert_eq!(sea.step(&mut pal, id), Ok(PalStep::Yielded));
            live.push((id, region));
        }
        Ok(())
    });
}

#[test]
fn pcr_chain_is_injective_on_event_sequences() {
    check("pcr_chain_is_injective_on_event_sequences", CASES, |t| {
        let seq_a = t.vec(0, 6, |t| t.bytes(0, 16));
        let seq_b = t.vec(0, 6, |t| t.bytes(0, 16));
        // Different event sequences yield different PCR values (no
        // collisions observed; order and multiplicity are encoded).
        let chain = |events: &[Vec<u8>]| {
            let mut bank = PcrBank::new();
            bank.dynamic_reset();
            for e in events {
                bank.extend(PcrIndex(17), &Sha1::digest(e)).unwrap();
            }
            bank.read(PcrIndex(17)).unwrap()
        };
        if seq_a == seq_b {
            prop_assert_eq!(chain(&seq_a), chain(&seq_b));
        } else {
            prop_assert_ne!(chain(&seq_a), chain(&seq_b));
        }
        Ok(())
    });
}

#[test]
fn sepcr_bank_conserves_slots() {
    check("sepcr_bank_conserves_slots", CASES, |t| {
        const SLOTS: u16 = 4;
        let ops = t.vec(0, 60, |t| t.range(0, 5) as u8);
        let mut bank = SePcrBank::new(SLOTS);
        let mut live: Vec<minimal_tcb::tpm::SePcrHandle> = Vec::new();
        let mut quoted: Vec<minimal_tcb::tpm::SePcrHandle> = Vec::new();

        for (i, op) in ops.into_iter().enumerate() {
            match op {
                // Allocate
                0 => {
                    let m = Sha1::digest(&i.to_le_bytes());
                    match bank.allocate(&m, CpuId(0)) {
                        Ok(h) => live.push(h),
                        Err(_) => prop_assert_eq!(bank.free_count(), 0),
                    }
                }
                // Release to quote
                1 => {
                    if let Some(h) = live.pop() {
                        bank.release_to_quote(h, CpuId(0)).unwrap();
                        quoted.push(h);
                    }
                }
                // Free from quote
                2 => {
                    if let Some(h) = quoted.pop() {
                        bank.free(h).unwrap();
                    }
                }
                // SKILL a live one
                3 => {
                    if let Some(h) = live.pop() {
                        bank.skill(h).unwrap();
                    }
                }
                // Extend a live one
                _ => {
                    if let Some(&h) = live.last() {
                        bank.extend(h, CpuId(0), &Sha1::digest(b"ev")).unwrap();
                    }
                }
            }
            // Conservation: free + live(Exclusive) + quoted(Quote) == SLOTS.
            prop_assert_eq!(
                bank.free_count() as usize + live.len() + quoted.len(),
                SLOTS as usize
            );
            for &h in &live {
                prop_assert_eq!(bank.state(h).unwrap(), SePcrState::Exclusive);
            }
            for &h in &quoted {
                prop_assert_eq!(bank.state(h).unwrap(), SePcrState::Quote);
            }
        }
        Ok(())
    });
}

#[test]
fn pcr_values_distinguish_boot_states() {
    check("pcr_values_distinguish_boot_states", CASES, |t| {
        let m = t.bytes(1, 64);
        // No single extend from the reboot state can reach the value a
        // genuine launch produces, for any measurement.
        let digest = Sha1::digest(&m);
        let from_boot = PcrValue::MINUS_ONE.extended(&digest);
        let from_launch = PcrValue::ZERO.extended(&digest);
        prop_assert_ne!(from_boot, from_launch);
        Ok(())
    });
}

#[test]
fn enhanced_sea_survives_random_scheduling() {
    check("enhanced_sea_survives_random_scheduling", TPM_CASES, |t| {
        use minimal_tcb::core::{EnhancedSea, FnPal, PalId, SecurePlatform};
        use minimal_tcb::hw::Platform;
        use minimal_tcb::tpm::KeyStrength;

        let ops = t.vec(0, 60, |t| (t.range(0, 6) as u8, t.range(0, 4) as u16));
        let yields: Vec<bool> = (0..8).map(|_| t.bool()).collect();

        let mut sea = EnhancedSea::new(SecurePlatform::new(
            Platform::recommended(4),
            KeyStrength::Demo512,
            b"fuzz",
        ))
        .unwrap();

        // A pool of PALs whose behaviour (yield vs exit per step) is
        // tape-driven.
        let mut pals: Vec<_> = (0..4)
            .map(|i| {
                let pattern = yields.clone();
                let mut step = 0usize;
                FnPal::new(&format!("fuzz-{i}"), move |_| {
                    let y = pattern.get(step).copied().unwrap_or(false);
                    step += 1;
                    if y {
                        Ok(minimal_tcb::core::PalOutcome::Yield)
                    } else {
                        Ok(minimal_tcb::core::PalOutcome::Exit(vec![i as u8]))
                    }
                })
            })
            .collect();
        let mut ids: Vec<Option<PalId>> = vec![None; 4];

        for (op, arg) in ops {
            let slot = (arg % 4) as usize;
            let cpu = CpuId(arg % 4);
            // Drive a random operation; every outcome must be a typed
            // Ok/Err — never a panic, never a broken invariant.
            match op {
                0 => {
                    if ids[slot].is_none() {
                        if let Ok(id) = sea.slaunch(&mut pals[slot], b"", cpu, None) {
                            ids[slot] = Some(id);
                        }
                    }
                }
                1 => {
                    if let Some(id) = ids[slot] {
                        let _ = sea.step(&mut pals[slot], id);
                    }
                }
                2 => {
                    if let Some(id) = ids[slot] {
                        let _ = sea.resume(id, cpu);
                    }
                }
                3 => {
                    if let Some(id) = ids[slot] {
                        let _ = sea.skill(id);
                    }
                }
                4 => {
                    if let Some(id) = ids[slot] {
                        let _ = sea.join(id, cpu);
                    }
                }
                _ => {
                    if let Some(id) = ids[slot] {
                        let _ = sea.quote_and_free(id, b"fuzz-nonce");
                    }
                }
            }
            // Invariant: no page is ever left in NONE unless some live
            // PAL is suspended; protected page count is bounded by the
            // PALs' combined regions.
            let (_, cpus_pages, none_pages) = sea.platform().machine().controller().state_census();
            let mut max_protected = 0usize;
            for id in ids.iter().flatten() {
                if let Ok(secb) = sea.secb(*id) {
                    max_protected += secb.pages().count as usize;
                }
            }
            prop_assert!(cpus_pages + none_pages <= max_protected);
        }
        Ok(())
    });
}

#[test]
fn seal_unseal_policy_is_exact() {
    check("seal_unseal_policy_is_exact", TPM_CASES, |t| {
        // TPM policy invariant: unseal succeeds iff every selected PCR
        // still holds its seal-time value.
        use minimal_tcb::hw::TpmKind;
        use minimal_tcb::tpm::{KeyStrength, Tpm};

        let data = t.bytes(0, 200);
        let selection_raw = t.vec(1, 4, |t| t.range(0, 24) as u8);
        let perturb = t.range(0, 24) as u8;
        let do_perturb = t.bool();

        let mut selection: Vec<PcrIndex> = selection_raw.iter().map(|&i| PcrIndex(i)).collect();
        selection.dedup();
        let mut tpm = Tpm::new(TpmKind::Infineon, KeyStrength::Demo512, b"prop-seal");
        let blob = tpm.seal(&data, &selection).unwrap().value;

        let selected = selection.iter().any(|p| p.0 == perturb);
        if do_perturb {
            tpm.extend(PcrIndex(perturb), &Sha1::digest(b"perturbation"))
                .unwrap();
        }
        let result = tpm.unseal(&blob);
        if do_perturb && selected {
            prop_assert!(result.is_err(), "policy must bind selected PCR {}", perturb);
        } else {
            prop_assert_eq!(result.unwrap().value, data);
        }
        Ok(())
    });
}

#[test]
fn blob_and_quote_wire_formats_roundtrip() {
    check("blob_and_quote_wire_formats_roundtrip", TPM_CASES, |t| {
        use minimal_tcb::hw::TpmKind;
        use minimal_tcb::tpm::{KeyStrength, Quote, SealedBlob, Tpm};
        let data = t.bytes(0, 100);
        let nonce = t.bytes(0, 40);
        let mut tpm = Tpm::new(TpmKind::Broadcom, KeyStrength::Demo512, b"prop-wire");
        let blob = tpm.seal(&data, &[PcrIndex(17)]).unwrap().value;
        let restored = SealedBlob::from_bytes(&blob.to_bytes()).unwrap();
        prop_assert_eq!(&restored, &blob);
        prop_assert_eq!(tpm.unseal(&restored).unwrap().value, data);

        let quote = tpm
            .quote(&nonce, &[PcrIndex(17), PcrIndex(0)])
            .unwrap()
            .value;
        let wire = quote.to_bytes();
        let received = Quote::from_bytes(&wire).unwrap();
        prop_assert_eq!(&received, &quote);
        prop_assert_eq!(received.to_bytes(), wire);
        prop_assert!(received.verify_signature(tpm.aik_public()));
        Ok(())
    });
}

// ---------------------------------------------------------------------
// Discrete-event executor invariants
// ---------------------------------------------------------------------

/// The event queue's published contract: events fire in virtual-time
/// order, equal times resolve by ascending event id, and exact
/// `(time, id)` ties resolve in scheduling (FIFO) order. The shadow
/// model is a stable sort on `(time, id)`, which is that contract by
/// construction.
#[test]
fn event_queue_equal_timestamp_events_resolve_in_tie_break_order() {
    use minimal_tcb::hw::{EventQueue, SimTime};
    check(
        "event_queue_equal_timestamp_events_resolve_in_tie_break_order",
        CASES,
        |t| {
            // Tiny time/id domains force heavy collisions, so the
            // second and third tie-break rules carry real weight.
            let entries = t.vec(0, 64, |t| {
                let at = SimTime::from_ns(t.range(0, 8) as u64);
                let id = t.range(0, 6) as u64;
                (at, id)
            });
            let mut queue: EventQueue<usize> = EventQueue::new();
            let mut shadow: Vec<(SimTime, u64, usize)> = Vec::new();
            for (seq, &(at, id)) in entries.iter().enumerate() {
                queue.schedule(at, id, seq);
                shadow.push((at, id, seq));
            }
            shadow.sort_by_key(|&(at, id, _)| (at, id)); // stable: FIFO at full ties
            prop_assert_eq!(queue.len(), shadow.len());
            for &(at, id, seq) in &shadow {
                let event = queue.pop().ok_or("queue ran dry early")?;
                prop_assert_eq!(event.at, at);
                prop_assert_eq!(event.id, id);
                prop_assert_eq!(event.payload, seq);
                // Popping advances virtual now monotonically.
                prop_assert_eq!(queue.now(), at);
            }
            prop_assert!(queue.pop().is_none());
            Ok(())
        },
    );
}

/// A durable faulted batch on 256 virtual CPUs is invariant to
/// seed-preserving permutations of job submission order: the engine
/// sorts pending work by job index before each epoch, so the whole
/// outcome — sessions, quotes, ledger, busy times — is a pure function
/// of the job *set*, never of the order `run_indexed` receives it in.
#[test]
fn engine_outcome_invariant_to_submission_order_on_256_virtual_cpus() {
    use minimal_tcb::core::{
        BatchOutcome, BatchPolicy, ConcurrentJob, Executor, FnPal, PalOutcome, RetryPolicy,
        SecurePlatform, SessionEngine, Slaunch,
    };
    use minimal_tcb::hw::{FaultPlan, Platform, ResetPlan, SimDuration, RATE_DENOM};
    use minimal_tcb::tpm::KeyStrength;

    const PERM_JOBS: usize = 24;
    const PERM_CPUS: usize = 256;

    fn jobs() -> Vec<(usize, ConcurrentJob)> {
        (0..PERM_JOBS)
            .map(|i| {
                let job = ConcurrentJob::new(
                    Box::new(FnPal::new(&format!("perm-{i}"), move |ctx| {
                        ctx.work(SimDuration::from_us(25 * (1 + (i as u64 % 5))));
                        let done = ctx.state().first().copied().unwrap_or(0) + 1;
                        ctx.set_state(vec![done]);
                        if done == 2 {
                            Ok(PalOutcome::Exit(i.to_le_bytes().to_vec()))
                        } else {
                            Ok(PalOutcome::Yield)
                        }
                    })),
                    b"",
                );
                (i, job)
            })
            .collect()
    }

    fn run(order: &[usize]) -> BatchOutcome {
        let platform = SecurePlatform::new(
            Platform::recommended(PERM_CPUS as u16),
            KeyStrength::Demo512,
            b"perm",
        );
        let mut pool =
            SessionEngine::<Slaunch>::new(platform, PERM_CPUS).expect("pool fits platform");
        pool.set_executor(Executor::DiscreteEvent);
        pool.set_fault_plan(Some(
            FaultPlan::new(0x9E12)
                .with_tpm_rate(8000)
                .with_mem_rate(3000)
                .with_timer_rate(3000)
                .with_fatal_ratio(0),
        ));
        let mut by_index = jobs();
        let mut permuted = Vec::with_capacity(PERM_JOBS);
        for &i in order.iter().rev() {
            permuted.push(
                by_index.swap_remove(by_index.iter().position(|(k, _)| *k == i).expect("index")),
            );
        }
        pool.run_indexed(
            permuted,
            &BatchPolicy::plain()
                .with_retry(RetryPolicy::default())
                .with_durability(
                    ResetPlan::new(0x9E12)
                        .with_reset_rate(RATE_DENOM / 8)
                        .with_max_resets(1),
                ),
        )
        .expect("permuted batch runs")
    }

    let identity: Vec<usize> = (0..PERM_JOBS).collect();
    let reference = run(&identity);
    assert_eq!(reference.sessions.len(), PERM_JOBS);
    check(
        "engine_outcome_invariant_to_submission_order_on_256_virtual_cpus",
        8,
        |t| {
            let mut order: Vec<usize> = (0..PERM_JOBS).collect();
            for i in (1..PERM_JOBS).rev() {
                let j = t.range(0, i + 1);
                order.swap(i, j);
            }
            let out = run(&order);
            prop_assert_eq!(&out, &reference);
            Ok(())
        },
    );
}
