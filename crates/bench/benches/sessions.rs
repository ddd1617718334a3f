//! Wall-clock benches over the SEA runtimes and TPM model — the real
//! cost of simulating each paper experiment's unit of work — on the
//! in-repo timer harness (`sea_bench::timing`).
//!
//! Run with `cargo bench --bench sessions`; set `SEA_BENCH_SMOKE=1` for
//! the CI smoke pass.

use sea_bench::timing::{bench, group, mib_per_sec};
use sea_core::{EnhancedSea, FnPal, LegacySea, PalOutcome, SecurePlatform};
use sea_hw::{CpuId, Platform, SimDuration};
use sea_tpm::{KeyStrength, PcrIndex, Tpm};

fn platform(p: Platform, seed: &[u8]) -> SecurePlatform {
    SecurePlatform::new(p, KeyStrength::Demo512, seed)
}

fn bench_tpm_ops() {
    group("tpm");
    let mut tpm = Tpm::new(sea_hw::TpmKind::Broadcom, KeyStrength::Demo512, b"bench");
    let digest = sea_crypto::Sha1::digest(b"m");
    bench("extend", || tpm.extend(PcrIndex(17), &digest).unwrap());
    bench("seal", || tpm.seal(b"state", &[PcrIndex(17)]).unwrap());
    let blob = tpm.seal(b"state", &[PcrIndex(17)]).unwrap().value;
    bench("unseal", || tpm.unseal(&blob).unwrap());
    bench("quote", || tpm.quote(b"nonce", &[PcrIndex(17)]).unwrap());
    // A durable checkpoint's size: the keystream and MAC dominate, not
    // the OAEP key wrap and key derivation the 5-byte rows above show.
    let state = vec![0x5Au8; 16 << 10];
    let t = bench("seal/16k", || tpm.seal(&state, &[]).unwrap());
    println!(
        "{:<32} {:>10.1} MiB/s",
        "",
        mib_per_sec(state.len(), t.median())
    );
    let blob = tpm.seal(&state, &[]).unwrap().value;
    let t = bench("unseal/16k", || tpm.unseal(&blob).unwrap());
    println!(
        "{:<32} {:>10.1} MiB/s",
        "",
        mib_per_sec(state.len(), t.median())
    );
}

fn bench_late_launch() {
    group("late_launch");
    // The Table 1 unit of work: one full late launch, 64 KB PAL. The
    // platform is rebuilt every iteration (late launch consumes it), so
    // this bench includes that setup — the launch itself dominates.
    bench("late_launch/skinit_64k", || {
        let mut sp = platform(Platform::hp_dc5750(), b"ll");
        let range = sea_hw::PageRange::new(sea_hw::PageIndex(8), 16);
        sp.machine_mut()
            .memory_mut()
            .write_raw(range.base_addr(), &vec![0x90u8; 64 * 1024])
            .unwrap();
        sp.late_launch(CpuId(0), range, 64 * 1024).unwrap()
    });
}

fn bench_sessions() {
    group("sessions");
    // The Figure 2 unit of work: one baseline PAL Gen session.
    let mut sea = LegacySea::new(platform(Platform::hp_dc5750(), b"gen")).unwrap();
    let mut pal = FnPal::new("gen", |ctx| {
        let _ = ctx.seal(b"state")?;
        Ok(PalOutcome::Exit(vec![]))
    })
    .with_image_size(64 * 1024);
    bench("session/legacy_gen", || {
        sea.run_session(&mut pal, b"").unwrap()
    });
}

fn bench_context_switch() {
    group("context_switch");
    // The §5.7 unit of work: one SYIELD + resume pair on the proposed
    // hardware (real simulator execution, not just the cost model).
    let mut sea = EnhancedSea::new(platform(Platform::recommended(2), b"sw")).unwrap();
    let mut pal = FnPal::new("spinner", |ctx| {
        ctx.work(SimDuration::from_us(1));
        Ok(PalOutcome::Yield)
    });
    let id = sea.slaunch(&mut pal, b"", CpuId(0), None).unwrap();
    sea.step(&mut pal, id).unwrap(); // now suspended
    bench("session/enhanced_switch_pair", || {
        sea.resume(id, CpuId(0)).unwrap();
        sea.step(&mut pal, id).unwrap(); // yields again
    });
}

fn main() {
    bench_tpm_ops();
    bench_late_launch();
    bench_sessions();
    bench_context_switch();
}
