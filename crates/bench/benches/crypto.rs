//! Wall-clock benches of the cryptographic substrate (the simulator's
//! hot paths), on the in-repo timer harness (`sea_bench::timing`) — no
//! external bench framework. These complement the virtual-time
//! experiment binaries: virtual time reproduces the paper's numbers;
//! these measure what the reproduction itself costs to run.
//!
//! Run with `cargo bench --bench crypto`; set `SEA_BENCH_SMOKE=1` for
//! the CI smoke pass.

use sea_bench::timing::{bench, group, mib_per_sec, smoke_mode};
use sea_crypto::{Drbg, Hmac, OaepLabel, RsaPrivateKey, Sha1, Sha256};

fn bench_hashing() {
    group("hashing");
    for size in [1usize << 10, 64 << 10] {
        let data = vec![0xABu8; size];
        let t = bench(&format!("sha1/{size}"), || {
            Sha1::digest(std::hint::black_box(&data))
        });
        println!("{:<32} {:>10.1} MiB/s", "", mib_per_sec(size, t.median()));
        let t = bench(&format!("sha256/{size}"), || {
            Sha256::digest(std::hint::black_box(&data))
        });
        println!("{:<32} {:>10.1} MiB/s", "", mib_per_sec(size, t.median()));
    }
}

fn bench_rsa() {
    let key = RsaPrivateKey::generate(512, &mut Drbg::new(b"bench key")).unwrap();
    let key1024 = RsaPrivateKey::generate(1024, &mut Drbg::new(b"bench key 1024")).unwrap();
    let digest = Sha1::digest(b"benchmark payload");

    group("rsa");
    let mut i = 0u64;
    bench("keygen/512", || {
        i += 1;
        RsaPrivateKey::generate(512, &mut Drbg::new(&i.to_le_bytes())).unwrap()
    });
    if !smoke_mode() {
        let mut i = 0u64;
        bench("keygen/1024", || {
            i += 1;
            RsaPrivateKey::generate(1024, &mut Drbg::new(&i.to_le_bytes())).unwrap()
        });
    }
    bench("sign/512", || key.sign_pkcs1v15(&digest).unwrap());
    // A key restored from its bytes carries no CRT factors, so it signs
    // with the full `d`, the path the VM's RSASIGN runs.
    let restored = RsaPrivateKey::from_bytes(&key.to_bytes()).unwrap();
    bench("sign_restored/512", || {
        restored.sign_pkcs1v15(&digest).unwrap()
    });
    if !smoke_mode() {
        bench("sign/1024", || key1024.sign_pkcs1v15(&digest).unwrap());
    }
    let sig = key.sign_pkcs1v15(&digest).unwrap();
    bench("verify/512", || {
        assert!(key.public_key().verify_pkcs1v15(&digest, &sig))
    });
    let mut rng = Drbg::new(b"oaep");
    let label = OaepLabel::default();
    bench("oaep_roundtrip/512", || {
        let ct = key
            .public_key()
            .encrypt_oaep(b"secret", &label, &mut rng)
            .unwrap();
        key.decrypt_oaep(&ct, &label).unwrap()
    });
}

fn bench_drbg() {
    group("drbg");
    let mut rng = Drbg::new(b"bench");
    bench("drbg/fill_1k", || rng.fill(1024));
    // A sealed checkpoint's keystream: per-block cost, not keying.
    let t = bench("drbg/fill_16k", || rng.fill(16 << 10));
    println!(
        "{:<32} {:>10.1} MiB/s",
        "",
        mib_per_sec(16 << 10, t.median())
    );
    // One keyed HMAC over a DRBG-block-sized message.
    let block = [0x42u8; 32];
    bench("hmac_sha256/32", || {
        Hmac::<Sha256>::mac(b"bench key", std::hint::black_box(&block))
    });
}

fn main() {
    bench_hashing();
    bench_rsa();
    bench_drbg();
}
