//! Totality of the parsers of untrusted bytes: on the durable-recovery
//! path the journal's log-frame decoder, `SessionJournal::from_bytes`
//! and `SealedBlob::from_bytes`; on the attestation path
//! `Quote::from_bytes`, `AikCert::from_bytes`, both RSA key decoders and
//! `Program::parse`. Each is fed valid, arbitrary, truncated,
//! length-inflated and spliced inputs decoded from the in-repo
//! harness's tapes, and must either return its typed error or parse an
//! input that re-encodes to exactly the same bytes (only the canonical
//! encoding parses). A panic fails the test, and so would an
//! allocation sized by a length field before it is checked against the
//! input: the inflated lengths reach 4 GiB. The verifier's own
//! `parse_wire` must accept exactly the wire quotes the platform's
//! parser accepts, and read the same fields from them.

mod common;

use common::{check, prop_assert, prop_assert_eq, Tape};
use minimal_tcb::core::vm::Program;
use minimal_tcb::core::{JournalEntry, SeaError, SessionJournal, SessionReport};
use minimal_tcb::crypto::{CryptoError, Drbg, RsaPrivateKey, RsaPublicKey};
use minimal_tcb::fleet::{parse_wire, AikCert, ParsedSource};
use minimal_tcb::hw::{CpuId, SimDuration, TpmKind};
use minimal_tcb::pals::vm::{ca_image, ssh_image};
use minimal_tcb::tpm::{KeyStrength, PcrIndex, Quote, QuoteSource, SealedBlob, Tpm, TpmError};

/// Cases per parser.
const CASES: usize = 512;

fn duration(t: &mut Tape) -> SimDuration {
    let shift = t.range(0, 64) as u32;
    SimDuration::from_ns(t.u64() >> shift)
}

fn report(t: &mut Tape) -> SessionReport {
    SessionReport {
        late_launch: duration(t),
        seal: duration(t),
        unseal: duration(t),
        quote: duration(t),
        tpm_other: duration(t),
        context_switch: duration(t),
        pal_work: duration(t),
    }
}

fn entry(t: &mut Tape) -> JournalEntry {
    match t.range(0, 4) {
        0 => JournalEntry::Intent,
        1 => JournalEntry::Launched,
        2 => JournalEntry::Quoted {
            output: t.bytes(0, 24),
            report: report(t),
            quote_cost: duration(t),
            cpu: t.u32() as u16,
            quote: t.bytes(0, 48),
            retries: t.u32(),
            recovery_cost: duration(t),
        },
        _ => JournalEntry::Degraded {
            output: t.bytes(0, 24),
            report: report(t),
        },
    }
}

/// Up to five records, keys strictly ascending.
fn records(t: &mut Tape) -> Vec<(u64, JournalEntry)> {
    let mut key = t.u64() >> 8;
    t.vec(0, 6, |t| {
        key += 1 + t.range(0, 1000) as u64;
        (key, entry(t))
    })
}

fn frame(records: &[(u64, JournalEntry)]) -> Vec<u8> {
    SessionJournal::encode_frame(records.iter().map(|(key, entry)| (*key, entry)))
}

/// The serialized ledger holding `records`: magic, count, then the
/// records in the encoding a frame's body uses.
fn ledger(records: &[(u64, JournalEntry)]) -> Vec<u8> {
    let frame = frame(records);
    let count = (records.len() as u32).to_be_bytes();
    [&b"SJNLv1"[..], &count, &frame[4..]].concat()
}

/// Byte order of the u32 length fields of a format.
#[derive(Clone, Copy)]
enum Order {
    Big,
    Little,
}

/// `valid` itself, or a copy with random bytes after a prefix, cut
/// short, with a length field inflated, or spliced onto a suffix of
/// `other`. `lengths` names offsets where `valid` holds a length field
/// in byte order `order`; inflation picks one of them or any other
/// offset.
fn mutate(t: &mut Tape, valid: &[u8], other: &[u8], lengths: &[usize], order: Order) -> Vec<u8> {
    match t.range(0, 5) {
        0 => valid.to_vec(),
        1 => {
            let mut out = valid[..t.range(0, valid.len() + 1)].to_vec();
            out.extend(t.bytes(0, 64));
            out
        }
        2 => valid[..t.range(0, valid.len() + 1)].to_vec(),
        3 => {
            let mut out = valid.to_vec();
            if out.len() < 4 {
                return out;
            }
            let at = match t.range(0, 2) {
                0 => lengths[t.range(0, lengths.len())],
                _ => t.range(0, out.len() - 3),
            };
            let Some(field) = out.get_mut(at..at + 4) else {
                return out;
            };
            let bytes = [field[0], field[1], field[2], field[3]];
            let old = match order {
                Order::Big => u32::from_be_bytes(bytes),
                Order::Little => u32::from_le_bytes(bytes),
            };
            let inflated = match t.range(0, 4) {
                0 => u32::MAX,
                1 => 1 << 31,
                2 => old.saturating_add(1 + t.range(0, 64) as u32),
                _ => (valid.len() as u32).saturating_add(t.range(0, 4096) as u32),
            };
            field.copy_from_slice(&match order {
                Order::Big => inflated.to_be_bytes(),
                Order::Little => inflated.to_le_bytes(),
            });
            out
        }
        _ => {
            let keep = t.range(0, valid.len() + 1);
            let from = t.range(0, other.len() + 1);
            [&valid[..keep], &other[from..]].concat()
        }
    }
}

#[test]
fn journal_frame_decoder_is_total() {
    check("journal_frame_decoder_is_total", CASES, |t| {
        let (a, b) = (frame(&records(t)), frame(&records(t)));
        prop_assert!(
            SessionJournal::decode_frame(&a).is_ok(),
            "valid frame refused"
        );
        // The frame's length prefix, and the first record's first
        // length field when it has one.
        let input = mutate(t, &a, &b, &[0, 13], Order::Big);
        match SessionJournal::decode_frame(&input) {
            Ok(records) => prop_assert_eq!(frame(&records), input),
            Err(SeaError::JournalCorrupt(_)) => {}
            Err(other) => return Err(format!("untyped error: {other:?}")),
        }
        Ok(())
    });
}

#[test]
fn journal_ledger_parser_is_total() {
    check("journal_ledger_parser_is_total", CASES, |t| {
        let (a, b) = (ledger(&records(t)), ledger(&records(t)));
        prop_assert!(
            SessionJournal::from_bytes(&a).is_ok(),
            "valid ledger refused"
        );
        // The record count, and the first record's first length field.
        let input = mutate(t, &a, &b, &[6, 19], Order::Big);
        match SessionJournal::from_bytes(&input) {
            Ok(journal) => prop_assert_eq!(journal.to_bytes(), input),
            Err(SeaError::JournalCorrupt(_)) => {}
            Err(other) => return Err(format!("untyped error: {other:?}")),
        }
        Ok(())
    });
}

#[test]
fn sealed_blob_parser_is_total() {
    let mut tpm = Tpm::new(TpmKind::Infineon, KeyStrength::Demo512, b"parser totality");
    let selections: [&[PcrIndex]; 3] = [&[], &[PcrIndex(17)], &[PcrIndex(0), PcrIndex(23)]];
    let blobs: Vec<Vec<u8>> = [0usize, 5, 46, 300]
        .iter()
        .zip(selections.iter().cycle())
        .map(|(&len, selection)| {
            let payload = vec![0xA5; len];
            tpm.seal(&payload, selection).unwrap().value.to_bytes()
        })
        .collect();
    check("sealed_blob_parser_is_total", CASES, |t| {
        let a = &blobs[t.range(0, blobs.len())];
        let b = &blobs[t.range(0, blobs.len())];
        prop_assert!(SealedBlob::from_bytes(a).is_ok(), "valid blob refused");
        // The selection's length field.
        let input = mutate(t, a, b, &[6], Order::Big);
        match SealedBlob::from_bytes(&input) {
            Ok(blob) => prop_assert_eq!(blob.to_bytes(), input),
            Err(TpmError::InvalidBlob) => {}
            Err(other) => return Err(format!("untyped error: {other:?}")),
        }
        Ok(())
    });
}

/// The big-endian u32 at `at`.
fn be_u32(bytes: &[u8], at: usize) -> usize {
    u32::from_be_bytes(bytes[at..at + 4].try_into().unwrap()) as usize
}

/// Offsets of the length prefixes of `count` consecutive
/// length-prefixed fields starting at `at`.
fn field_lengths(bytes: &[u8], mut at: usize, count: usize) -> Vec<usize> {
    (0..count)
        .map(|_| {
            let field = at;
            at += 4 + be_u32(bytes, at);
            field
        })
        .collect()
}

/// Canonical wire quotes: PCR quotes over zero, one and two PCRs and a
/// sePCR quote, with nonces of several lengths.
fn wire_quotes() -> Vec<Vec<u8>> {
    let mut tpm =
        Tpm::new(TpmKind::Infineon, KeyStrength::Demo512, b"parser totality").with_sepcrs(1);
    let selections: [&[PcrIndex]; 3] = [&[], &[PcrIndex(17)], &[PcrIndex(0), PcrIndex(23)]];
    let nonces: [&[u8]; 3] = [b"", b"n", &[7; 40]];
    let mut wires: Vec<Vec<u8>> = selections
        .iter()
        .zip(nonces)
        .map(|(selection, nonce)| tpm.quote(nonce, selection).unwrap().value.to_bytes())
        .collect();
    let handle = tpm.slaunch_measure(b"pal", CpuId(0)).unwrap().value;
    tpm.sepcr_release_to_quote(handle, CpuId(0)).unwrap();
    wires.push(tpm.sepcr_quote(handle, b"sepcr").unwrap().value.to_bytes());
    wires
}

/// A wire quote from `wires` and a mutation of it, with its three
/// length fields (after the magic and the version) as inflation
/// targets.
fn mutated_wire<'a>(t: &mut Tape, wires: &'a [Vec<u8>]) -> (&'a [u8], Vec<u8>) {
    let a = &wires[t.range(0, wires.len())];
    let b = &wires[t.range(0, wires.len())];
    (a, mutate(t, a, b, &field_lengths(a, 6, 3), Order::Big))
}

#[test]
fn quote_parser_is_total() {
    let wires = wire_quotes();
    check("quote_parser_is_total", CASES, |t| {
        let (valid, input) = mutated_wire(t, &wires);
        prop_assert!(Quote::from_bytes(valid).is_ok(), "valid quote refused");
        match Quote::from_bytes(&input) {
            Ok(quote) => prop_assert_eq!(quote.to_bytes(), input),
            Err(TpmError::InvalidBlob) => {}
            Err(other) => return Err(format!("untyped error: {other:?}")),
        }
        Ok(())
    });
}

/// The verifier's view of a platform quote's source.
fn parsed_source(source: &QuoteSource) -> ParsedSource {
    match source {
        QuoteSource::Pcrs { selection, values } => ParsedSource::Pcrs(
            selection
                .iter()
                .zip(values)
                .map(|(index, value)| (index.0, *value.as_bytes()))
                .collect(),
        ),
        QuoteSource::SePcr { value } => ParsedSource::SePcr(*value.as_bytes()),
    }
}

#[test]
fn verifier_and_platform_accept_the_same_wire_quotes() {
    let wires = wire_quotes();
    check(
        "verifier_and_platform_accept_the_same_wire_quotes",
        CASES,
        |t| {
            let (_, input) = mutated_wire(t, &wires);
            match (parse_wire(&input), Quote::from_bytes(&input)) {
                (Ok(remote), Ok(local)) => {
                    prop_assert_eq!(&remote.nonce[..], local.nonce());
                    prop_assert_eq!(&remote.signature, &local.signature().0);
                    prop_assert_eq!(remote.source, parsed_source(local.source()));
                }
                (Err(_), Err(_)) => {}
                (remote, local) => {
                    return Err(format!("parsers disagree: {remote:?} against {local:?}"))
                }
            }
            Ok(())
        },
    );
}

fn rsa_keys() -> Vec<RsaPrivateKey> {
    [&b"parser totality key a"[..], b"parser totality key b"]
        .iter()
        .map(|seed| RsaPrivateKey::generate(512, &mut Drbg::new(seed)).unwrap())
        .collect()
}

#[test]
fn aik_cert_parser_is_total() {
    let keys = rsa_keys();
    let certs = [
        AikCert::issue(&keys[0], 1, keys[1].public_key()).to_bytes(),
        AikCert::issue_expiring(&keys[1], u64::MAX - 1, keys[0].public_key(), 5_000).to_bytes(),
    ];
    check("aik_cert_parser_is_total", CASES, |t| {
        let a = &certs[t.range(0, certs.len())];
        let b = &certs[t.range(0, certs.len())];
        prop_assert!(AikCert::from_bytes(a).is_ok(), "valid certificate refused");
        // The AIK's and the signature's lengths, after platform and expiry.
        let input = mutate(t, a, b, &field_lengths(a, 16, 2), Order::Big);
        match AikCert::from_bytes(&input) {
            Ok(cert) => prop_assert_eq!(cert.to_bytes(), input),
            Err(CryptoError::InvalidCiphertext) => {}
            Err(other) => return Err(format!("untyped error: {other:?}")),
        }
        Ok(())
    });
}

#[test]
fn rsa_public_key_parser_is_total() {
    let keys: Vec<Vec<u8>> = rsa_keys()
        .iter()
        .map(|key| key.public_key().to_bytes())
        .collect();
    check("rsa_public_key_parser_is_total", CASES, |t| {
        let a = &keys[t.range(0, keys.len())];
        let b = &keys[t.range(0, keys.len())];
        prop_assert!(RsaPublicKey::from_bytes(a).is_ok(), "valid key refused");
        let input = mutate(t, a, b, &field_lengths(a, 0, 2), Order::Big);
        match RsaPublicKey::from_bytes(&input) {
            Ok(key) => prop_assert_eq!(key.to_bytes(), input),
            Err(CryptoError::InvalidCiphertext) => {}
            Err(other) => return Err(format!("untyped error: {other:?}")),
        }
        Ok(())
    });
}

#[test]
fn rsa_private_key_parser_is_total() {
    let keys: Vec<Vec<u8>> = rsa_keys().iter().map(RsaPrivateKey::to_bytes).collect();
    check("rsa_private_key_parser_is_total", CASES, |t| {
        let a = &keys[t.range(0, keys.len())];
        let b = &keys[t.range(0, keys.len())];
        prop_assert!(RsaPrivateKey::from_bytes(a).is_ok(), "valid key refused");
        let input = mutate(t, a, b, &field_lengths(a, 0, 3), Order::Big);
        match RsaPrivateKey::from_bytes(&input) {
            Ok(key) => prop_assert_eq!(key.to_bytes(), input),
            Err(CryptoError::InvalidCiphertext) => {}
            Err(other) => return Err(format!("untyped error: {other:?}")),
        }
        Ok(())
    });
}

#[test]
fn vm_program_parser_is_total() {
    let images = [
        Program::new(Vec::new(), Vec::new()).serialize(),
        Program::new(Vec::new(), b"data only".to_vec()).serialize(),
        ssh_image(),
        ca_image(),
    ];
    check("vm_program_parser_is_total", CASES, |t| {
        let a = &images[t.range(0, images.len())];
        let b = &images[t.range(0, images.len())];
        prop_assert!(Program::parse(a).is_ok(), "valid program refused");
        // The instruction count and the data length, after the magic.
        let input = mutate(t, a, b, &[4, 8], Order::Little);
        match Program::parse(&input) {
            Ok(program) => prop_assert_eq!(program.serialize(), input),
            Err(SeaError::PalFailed(_)) => {}
            Err(other) => return Err(format!("untyped error: {other:?}")),
        }
        Ok(())
    });
}
