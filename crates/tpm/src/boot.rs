//! Measured (trusted) boot over the static PCRs — the §2.1.1 background
//! that motivates minimal-TCB execution.
//!
//! "As originally envisioned, the verifier must assess a list of all
//! software loaded since boot time (including the OS) and its
//! configuration information, and decide whether the platform should be
//! trusted." This module implements that original vision — an event log
//! whose entries are extended into static PCRs, and a verifier that
//! replays the log against a quote — so the repository can demonstrate
//! *why* judging a whole boot chain is so much harder than judging one
//! PAL measurement.

use sea_crypto::{Sha1, Sha1Digest};

use crate::error::TpmError;
use crate::pcr::{PcrIndex, PcrValue, DYNAMIC_PCR_FIRST};
use crate::tpm::Tpm;

/// One measured boot event (an entry in the stored measurement log).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BootEvent {
    /// The static PCR the event was extended into (0–16).
    pub pcr: PcrIndex,
    /// Human-readable description ("BIOS", "bootloader", "kernel", …).
    pub description: String,
    /// SHA-1 measurement of the loaded component.
    pub digest: Sha1Digest,
}

/// The stored measurement log a trusted-boot attestation ships alongside
/// the quote.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventLog {
    events: Vec<BootEvent>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        EventLog { events: Vec::new() }
    }

    /// The recorded events, in measurement order.
    pub fn events(&self) -> &[BootEvent] {
        &self.events
    }

    /// Measures `component` into `pcr` on `tpm` and appends the
    /// corresponding log entry — what each boot stage does for the next
    /// (Arbaugh-style chain, reference \[4\]/\[19\] of the paper).
    ///
    /// # Errors
    ///
    /// [`TpmError::PcrOutOfRange`] for dynamic or invalid PCRs: boot
    /// measurements belong in the static bank.
    pub fn measure(
        &mut self,
        tpm: &mut Tpm,
        pcr: PcrIndex,
        description: &str,
        component: &[u8],
    ) -> Result<(), TpmError> {
        if pcr.0 >= DYNAMIC_PCR_FIRST {
            return Err(TpmError::PcrOutOfRange(pcr));
        }
        let digest = Sha1::digest(component);
        tpm.extend(pcr, &digest)?;
        self.events.push(BootEvent {
            pcr,
            description: description.to_owned(),
            digest,
        });
        Ok(())
    }

    /// Replays the log: computes the PCR values the log *claims* (the
    /// chain of extends from zero, per PCR).
    pub fn replay(&self) -> Vec<(PcrIndex, PcrValue)> {
        let mut out: Vec<(PcrIndex, PcrValue)> = Vec::new();
        for event in &self.events {
            match out.iter_mut().find(|(p, _)| *p == event.pcr) {
                Some((_, v)) => *v = v.extended(&event.digest),
                None => out.push((event.pcr, PcrValue::ZERO.extended(&event.digest))),
            }
        }
        out
    }

    /// Verifies the log against live PCR values (as reported in a
    /// quote): every claimed chain must match the reported value.
    ///
    /// Note what this does *not* give the verifier: a judgement. It
    /// still has to decide whether every one of the listed components —
    /// BIOS build, bootloader, multi-million-line kernel, config files —
    /// is trustworthy. That assessment burden is the paper's motivation
    /// for the minimal TCB.
    pub fn matches(&self, reported: &[(PcrIndex, PcrValue)]) -> bool {
        let replayed = self.replay();
        replayed
            .iter()
            .all(|(pcr, expected)| reported.iter().any(|(rp, rv)| rp == pcr && rv == expected))
    }
}

/// Arbaugh-style *secure boot* (paper reference \[4\]): each layer
/// verifies the next against a known-good policy **before** transferring
/// control, aborting the boot otherwise.
///
/// Contrast with [`EventLog`] trusted boot: secure boot enforces a local
/// policy but produces nothing an external party can verify ("this
/// architecture does not allow a system to attest its configuration to
/// an external party", §7) — which is why the paper's lineage runs
/// through trusted boot and late launch instead.
#[derive(Debug, Clone, Default)]
pub struct SecureBootPolicy {
    approved: Vec<Sha1Digest>,
}

/// Outcome of a secure-boot stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SecureBootOutcome {
    /// The component matched the policy; control transfers.
    Continue,
    /// Unknown component; the boot halts here.
    Abort,
}

impl SecureBootPolicy {
    /// Creates a policy trusting exactly the given component images.
    pub fn new(approved_components: &[&[u8]]) -> Self {
        SecureBootPolicy {
            approved: approved_components
                .iter()
                .map(|c| Sha1::digest(c))
                .collect(),
        }
    }

    /// The verify-before-load step a boot stage runs on its successor.
    pub fn check(&self, component: &[u8]) -> SecureBootOutcome {
        if self.approved.contains(&Sha1::digest(component)) {
            SecureBootOutcome::Continue
        } else {
            SecureBootOutcome::Abort
        }
    }

    /// Runs a whole boot chain, returning how many stages loaded before
    /// an abort (all of them, if the chain is clean).
    pub fn run_chain(&self, chain: &[&[u8]]) -> (usize, SecureBootOutcome) {
        for (i, component) in chain.iter().enumerate() {
            if self.check(component) == SecureBootOutcome::Abort {
                return (i, SecureBootOutcome::Abort);
            }
        }
        (chain.len(), SecureBootOutcome::Continue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpm::KeyStrength;
    use sea_hw::TpmKind;

    fn tpm() -> Tpm {
        Tpm::new(TpmKind::Infineon, KeyStrength::Demo512, b"boot tpm")
    }

    fn boot_chain(tpm: &mut Tpm) -> EventLog {
        let mut log = EventLog::new();
        log.measure(tpm, PcrIndex(0), "BIOS", b"bios v1.02")
            .unwrap();
        log.measure(tpm, PcrIndex(4), "bootloader", b"grub 0.97")
            .unwrap();
        log.measure(tpm, PcrIndex(8), "kernel", b"vmlinuz-2.6.23")
            .unwrap();
        log.measure(tpm, PcrIndex(8), "initrd", b"initrd.img")
            .unwrap();
        log
    }

    fn read_pcrs(tpm: &mut Tpm, idxs: &[u8]) -> Vec<(PcrIndex, PcrValue)> {
        idxs.iter()
            .map(|&i| (PcrIndex(i), tpm.pcr_read(PcrIndex(i)).unwrap().value))
            .collect()
    }

    #[test]
    fn log_replay_matches_live_pcrs() {
        let mut t = tpm();
        let log = boot_chain(&mut t);
        assert_eq!(log.events().len(), 4);
        let reported = read_pcrs(&mut t, &[0, 4, 8]);
        assert!(log.matches(&reported));
    }

    #[test]
    fn log_tampering_detected() {
        let mut t = tpm();
        let mut log = boot_chain(&mut t);
        // The compromised OS edits the log to hide the real kernel.
        let mut events: Vec<BootEvent> = log.events().to_vec();
        events[2].digest = Sha1::digest(b"vmlinuz-clean-looking");
        log = EventLog { events };
        let reported = read_pcrs(&mut t, &[0, 4, 8]);
        assert!(!log.matches(&reported));
    }

    #[test]
    fn omitted_event_detected() {
        let mut t = tpm();
        let log = boot_chain(&mut t);
        // Hide the initrd measurement.
        let truncated = EventLog {
            events: log.events()[..3].to_vec(),
        };
        let reported = read_pcrs(&mut t, &[0, 4, 8]);
        assert!(!truncated.matches(&reported));
    }

    #[test]
    fn boot_measurements_rejected_on_dynamic_pcrs() {
        let mut t = tpm();
        let mut log = EventLog::new();
        assert_eq!(
            log.measure(&mut t, PcrIndex(17), "sneaky", b"x")
                .unwrap_err(),
            TpmError::PcrOutOfRange(PcrIndex(17))
        );
    }

    #[test]
    fn quoted_boot_state_verifies_end_to_end() {
        let mut t = tpm();
        let log = boot_chain(&mut t);
        let quote = t
            .quote(b"nonce", &[PcrIndex(0), PcrIndex(4), PcrIndex(8)])
            .unwrap()
            .value;
        assert!(quote.verify_signature(t.aik_public()));
        // Extract the reported values from the quote and check the log.
        if let crate::quote::QuoteSource::Pcrs { selection, values } = quote.source() {
            let reported: Vec<(PcrIndex, PcrValue)> = selection
                .iter()
                .copied()
                .zip(values.iter().copied())
                .collect();
            assert!(log.matches(&reported));
        } else {
            panic!("expected a PCR quote");
        }
    }

    #[test]
    fn secure_boot_loads_clean_chains_and_halts_on_tampering() {
        let policy = SecureBootPolicy::new(&[b"bios-ok", b"loader-ok", b"kernel-ok"]);
        // Clean chain boots fully.
        let (stages, outcome) = policy.run_chain(&[b"bios-ok", b"loader-ok", b"kernel-ok"]);
        assert_eq!((stages, outcome), (3, SecureBootOutcome::Continue));
        // A tampered kernel halts the boot at stage 2 — locally enforced,
        // but nothing here is attestable to a remote party.
        let (stages, outcome) = policy.run_chain(&[b"bios-ok", b"loader-ok", b"kernel-rooted"]);
        assert_eq!((stages, outcome), (2, SecureBootOutcome::Abort));
        // Empty policy rejects everything.
        assert_eq!(
            SecureBootPolicy::default().check(b"anything"),
            SecureBootOutcome::Abort
        );
    }

    #[test]
    fn replay_accumulates_per_pcr_chains() {
        let mut t = tpm();
        let log = boot_chain(&mut t);
        let replayed = log.replay();
        // Three distinct PCRs touched; PCR 8 extended twice.
        assert_eq!(replayed.len(), 3);
        let pcr8 = replayed.iter().find(|(p, _)| *p == PcrIndex(8)).unwrap().1;
        let expected = PcrValue::ZERO
            .extended(&Sha1::digest(b"vmlinuz-2.6.23"))
            .extended(&Sha1::digest(b"initrd.img"));
        assert_eq!(pcr8, expected);
    }
}
