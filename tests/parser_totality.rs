//! Totality of the parsers on the durable-recovery path: the journal's
//! log-frame decoder, `SessionJournal::from_bytes` and
//! `SealedBlob::from_bytes`. Each is fed valid, arbitrary, truncated,
//! length-inflated and spliced inputs decoded from the in-repo
//! harness's tapes, and must either return its typed error or parse an
//! input that re-encodes to exactly the same bytes (only the canonical
//! encoding parses). A panic fails the test, and so would an
//! allocation sized by a length field before it is checked against the
//! input: the inflated lengths reach 4 GiB.

mod common;

use common::{check, prop_assert, prop_assert_eq, Tape};
use minimal_tcb::core::{JournalEntry, SeaError, SessionJournal, SessionReport};
use minimal_tcb::hw::{SimDuration, TpmKind};
use minimal_tcb::tpm::{KeyStrength, PcrIndex, SealedBlob, Tpm, TpmError};

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

/// `valid` itself, or a copy with random bytes after a prefix, cut
/// short, with a length field inflated, or spliced onto a suffix of
/// `other`. `lengths` names offsets where `valid` holds a length field;
/// inflation picks one of them or any other offset.
fn mutate(t: &mut Tape, valid: &[u8], other: &[u8], lengths: &[usize]) -> Vec<u8> {
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
            let old = u32::from_be_bytes([field[0], field[1], field[2], field[3]]);
            let inflated = match t.range(0, 4) {
                0 => u32::MAX,
                1 => 1 << 31,
                2 => old.saturating_add(1 + t.range(0, 64) as u32),
                _ => (valid.len() as u32).saturating_add(t.range(0, 4096) as u32),
            };
            field.copy_from_slice(&inflated.to_be_bytes());
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
        let input = mutate(t, &a, &b, &[0, 13]);
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
        let input = mutate(t, &a, &b, &[6, 19]);
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
        let input = mutate(t, a, b, &[6]);
        match SealedBlob::from_bytes(&input) {
            Ok(blob) => prop_assert_eq!(blob.to_bytes(), input),
            Err(TpmError::InvalidBlob) => {}
            Err(other) => return Err(format!("untyped error: {other:?}")),
        }
        Ok(())
    });
}
