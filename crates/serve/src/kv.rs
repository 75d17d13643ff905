//! The secure-KV front-end: one backend, crash/recover on the service
//! clock, and cumulative device accounting across crash epochs.

use crate::scenario::ServeScheme;
use star_core::triad::{TriadConfig, TriadMemory};
use star_core::{
    recover, DowntimeSpan, Instrumented, RecoveryError, SecureMemConfig, SecureMemory,
    NS_PER_LINE_ACCESS,
};
use star_nvm::{NvmDevice, WearSummary};
use star_prof::cause::NUM_CAUSES;

/// Device totals accumulated over the whole service horizon.
///
/// The engine's counters reset when a crash epoch ends (a resumed
/// controller starts fresh clocks and statistics), so the front-end
/// absorbs each epoch's device counters at crash time and again at the
/// end of the run; Triad's controller model never resets and is absorbed
/// once. Wear is read once, from the final epoch's device.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HorizonTotals {
    /// NVM line reads across all epochs.
    pub nvm_reads: u64,
    /// NVM line writes across all epochs.
    pub nvm_writes: u64,
    /// Read energy, pJ.
    pub energy_read_pj: u64,
    /// Write energy, pJ.
    pub energy_write_pj: u64,
    /// Write counts by [`star_prof::WriteCause::index`] slot, summed
    /// across epochs.
    pub writes_by_cause: [u64; NUM_CAUSES],
    /// Wear summary of the final epoch's device (per-line wear does not
    /// survive the modeled full-rebuild of non-recoverable schemes, so
    /// this is the live device's distribution, not a horizon union); a
    /// fleet's totals merge their lanes' devices.
    pub wear: Option<WearSummary>,
}

impl HorizonTotals {
    /// Adds one epoch's traffic, energy and writes by cause, the same
    /// figures a [`star_core::RunReport`] carries, without building one.
    fn absorb_epoch(&mut self, nvm: &NvmDevice) {
        let stats = nvm.stats();
        let energy = nvm.config().energy;
        self.nvm_reads += stats.total_reads();
        self.nvm_writes += stats.total_writes();
        self.energy_read_pj += energy.read_pj * stats.total_reads();
        self.energy_write_pj += energy.write_pj * stats.total_writes();
        for (slot, n) in self.writes_by_cause.iter_mut().zip(nvm.prof().causes()) {
            *slot += n;
        }
    }

    /// Adds another lane's totals. Lanes are disjoint devices, so their
    /// wear summaries merge by [`WearSummary::absorb`].
    pub(crate) fn absorb(&mut self, other: &HorizonTotals) {
        self.nvm_reads += other.nvm_reads;
        self.nvm_writes += other.nvm_writes;
        self.energy_read_pj += other.energy_read_pj;
        self.energy_write_pj += other.energy_write_pj;
        for (slot, n) in self.writes_by_cause.iter_mut().zip(other.writes_by_cause) {
            *slot += n;
        }
        self.wear = match (self.wear, other.wear) {
            (Some(mut a), Some(b)) => {
                a.absorb(&b);
                Some(a)
            }
            (a, b) => a.or(b),
        };
    }

    /// Total energy, pJ.
    pub fn energy_pj(&self) -> u64 {
        self.energy_read_pj + self.energy_write_pj
    }
}

enum Backend {
    /// `Option` so a crash can consume the engine by value.
    Engine(Option<Box<SecureMemory>>),
    Triad(Box<TriadMemory>),
}

/// Modeled request-processing compute (instructions) charged per KV
/// operation on the engine backends — parsing, hashing, dispatch — so a
/// cache-hit GET still occupies the server for a realistic sliver of
/// time instead of zero. (Triad's controller model already charges
/// device latency on its own clock.)
const OP_WORK_INSTRUCTIONS: u64 = 200;

/// A secure-KV store over one backend scheme.
///
/// GET/PUT advance the backend's modeled clock; the caller reads the
/// clock before and after an operation to obtain its service time.
/// [`crash_recover`](Self::crash_recover) models a power failure at a
/// request boundary: the scheme's recovery runs (or, for WB, a full
/// rebuild) and the resulting [`DowntimeSpan`] is returned for the
/// caller's ledger.
pub struct SecureKv {
    scheme: ServeScheme,
    backend: Backend,
    mem_cfg: SecureMemConfig,
    totals: HorizonTotals,
}

impl SecureKv {
    /// Builds the store.
    pub fn new(scheme: ServeScheme, mem_cfg: SecureMemConfig) -> Self {
        let backend = match scheme.engine_kind() {
            Some(kind) => Backend::Engine(Some(Box::new(SecureMemory::new(kind, mem_cfg.clone())))),
            None => Backend::Triad(Box::new(TriadMemory::new(TriadConfig {
                data_lines: mem_cfg.data_lines,
                persist_levels: 2,
                nvm: mem_cfg.nvm,
                key_seed: mem_cfg.key_seed,
            }))),
        };
        Self {
            scheme,
            backend,
            mem_cfg,
            totals: HorizonTotals::default(),
        }
    }

    /// The backend scheme.
    pub fn scheme(&self) -> ServeScheme {
        self.scheme
    }

    /// The backend's modeled clock, ps. Resets to zero when a crash
    /// epoch ends; only within-request deltas are meaningful.
    pub fn now_ps(&self) -> u64 {
        match &self.backend {
            Backend::Engine(m) => m.as_ref().expect("engine live").now_ps(),
            Backend::Triad(t) => t.now_ps(),
        }
    }

    /// GET: verified load of `key`'s line; 0 for a never-written key.
    ///
    /// # Panics
    ///
    /// Panics if the load fails verification (tampered NVM).
    pub fn get(&mut self, key: u64) -> u64 {
        let value = match &mut self.backend {
            Backend::Engine(m) => {
                let m = m.as_mut().expect("engine live");
                m.work(OP_WORK_INSTRUCTIONS);
                m.read_data(key)
            }
            Backend::Triad(t) => t.read_data(key),
        };
        value.unwrap_or_else(|e| panic!("GET of key {key}: {e}"))
    }

    /// Durable PUT: writes `value` to `key`'s line and persists it
    /// through the scheme's full persistence path.
    pub fn put(&mut self, key: u64, value: u64) {
        match &mut self.backend {
            Backend::Engine(m) => {
                let m = m.as_mut().expect("engine live");
                m.work(OP_WORK_INSTRUCTIONS);
                m.write_data(key, value);
                m.persist_data(key);
                m.fence();
            }
            Backend::Triad(t) => t.write_data(key, value),
        }
    }

    /// Power failure at service time `at_ns`: volatile state is lost,
    /// the platform reboots (`reboot_ns`), and the scheme's recovery
    /// runs on the same clock.
    ///
    /// * Recoverable engine schemes crash to a [`star_core::CrashImage`],
    ///   run [`star_core::recover`] (asserting the oracle `correct`
    ///   flag), and resume from the restored image.
    /// * WB is not recoverable: the model charges a full scan-and-rebuild
    ///   of the data and metadata regions (100 ns per line, the paper's
    ///   cost model) and restarts on a *fresh* store — the stored values
    ///   are gone, which is precisely the baseline's deficiency.
    /// * Triad re-reads every persisted counter block and rebuilds its
    ///   tree bottom-up; its controller model is non-destructive, so the
    ///   store survives with the same contents.
    pub fn crash_recover(&mut self, at_ns: u64, reboot_ns: u64) -> DowntimeSpan {
        star_scope::span!("serve/recover");
        match &mut self.backend {
            Backend::Engine(slot) => {
                let mem = *slot.take().expect("engine live");
                self.totals.absorb_epoch(mem.nvm());
                let kind = mem.scheme();
                let mut image = mem.crash();
                match recover(&mut image) {
                    Ok(rep) => {
                        assert!(rep.verified, "attack-free recovery verifies");
                        assert!(rep.correct, "recovery restores the pre-crash cache");
                        *slot = Some(Box::new(SecureMemory::resume_from_image(
                            &image,
                            self.mem_cfg.clone(),
                        )));
                        DowntimeSpan::from_recovery(at_ns, reboot_ns, &rep)
                    }
                    Err(RecoveryError::NotRecoverable(_)) => {
                        let meta_lines = image.geometry().total_meta_lines();
                        let scanned = self.mem_cfg.data_lines + meta_lines;
                        *slot = Some(Box::new(SecureMemory::new(kind, self.mem_cfg.clone())));
                        DowntimeSpan {
                            at_ns,
                            reboot_ns,
                            recovery_ns: (scanned + meta_lines) * NS_PER_LINE_ACCESS,
                            stale_nodes: 0,
                            nvm_reads: scanned,
                            nvm_writes: meta_lines,
                        }
                    }
                    Err(e) => panic!("unexpected recovery failure: {e}"),
                }
            }
            Backend::Triad(t) => {
                let (reads, time_ns, verified) = t.crash_and_recover();
                assert!(verified, "attack-free Triad recovery verifies");
                DowntimeSpan {
                    at_ns,
                    reboot_ns,
                    recovery_ns: time_ns,
                    stale_nodes: 0,
                    nvm_reads: reads,
                    nvm_writes: 0,
                }
            }
        }
    }

    /// Ends the horizon: absorbs the final epoch's device counters and
    /// its wear, and returns the cumulative totals.
    pub fn finish(mut self) -> HorizonTotals {
        let nvm = match &self.backend {
            Backend::Engine(m) => m.as_ref().expect("engine live").nvm(),
            Backend::Triad(t) => t.nvm(),
        };
        self.totals.absorb_epoch(nvm);
        self.totals.wear = Some(nvm.wear().summary());
        self.totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ServeConfig;

    fn quick_cfg() -> SecureMemConfig {
        ServeConfig::quick(1).mem
    }

    #[test]
    fn put_get_roundtrips_on_every_backend() {
        for scheme in ServeScheme::ALL {
            let mut kv = SecureKv::new(scheme, quick_cfg());
            for i in 0..40u64 {
                kv.put(i * 3, 1000 + i);
            }
            for i in 0..40u64 {
                assert_eq!(kv.get(i * 3), 1000 + i, "{}", scheme.label());
            }
            assert_eq!(kv.get(1234), 0, "never-written key reads 0");
        }
    }

    #[test]
    fn operations_cost_modeled_time() {
        for scheme in ServeScheme::ALL {
            let mut kv = SecureKv::new(scheme, quick_cfg());
            let t0 = kv.now_ps();
            kv.put(1, 7);
            assert!(
                kv.now_ps() > t0,
                "{} PUT advances the clock",
                scheme.label()
            );
            let t1 = kv.now_ps();
            let _ = kv.get(1);
            assert!(
                kv.now_ps() > t1,
                "{} GET advances the clock",
                scheme.label()
            );
        }
    }

    #[test]
    fn recoverable_schemes_keep_data_across_a_crash() {
        for scheme in [
            ServeScheme::Strict,
            ServeScheme::Anubis,
            ServeScheme::Star,
            ServeScheme::Triad,
        ] {
            let mut kv = SecureKv::new(scheme, quick_cfg());
            for i in 0..64u64 {
                kv.put(i * 7, 0xc0de + i);
            }
            let span = kv.crash_recover(5_000, 1_000);
            assert_eq!(span.at_ns, 5_000);
            assert_eq!(span.reboot_ns, 1_000);
            for i in 0..64u64 {
                assert_eq!(kv.get(i * 7), 0xc0de + i, "{}", scheme.label());
            }
        }
    }

    #[test]
    fn star_recovery_is_dirty_set_proportional_and_wb_rebuilds() {
        let cfg = quick_cfg();
        let mut star = SecureKv::new(ServeScheme::Star, cfg.clone());
        let mut wb = SecureKv::new(ServeScheme::Wb, cfg.clone());
        for i in 0..100u64 {
            star.put(i, i + 1);
            wb.put(i, i + 1);
        }
        let star_span = wb_vs_star(&mut star);
        let wb_span = wb_vs_star(&mut wb);
        assert!(star_span.recovery_ns > 0);
        assert!(
            wb_span.recovery_ns > star_span.recovery_ns * 10,
            "WB full rebuild ({} ns) must dwarf STAR's dirty-set recovery ({} ns)",
            wb_span.recovery_ns,
            star_span.recovery_ns
        );
        // WB's rebuild wipes the store: the data is gone.
        assert_eq!(wb.get(5), 0);
        assert_eq!(star.get(5), 6);
        fn wb_vs_star(kv: &mut SecureKv) -> DowntimeSpan {
            kv.crash_recover(1_000, 0)
        }
    }

    #[test]
    fn totals_accumulate_across_crash_epochs() {
        let mut kv = SecureKv::new(ServeScheme::Star, quick_cfg());
        for i in 0..50u64 {
            kv.put(i, i + 1);
        }
        kv.crash_recover(1_000, 0);
        for i in 0..50u64 {
            kv.put(i, i + 100);
        }
        let totals = kv.finish();
        assert!(totals.nvm_writes >= 100, "both epochs' writes counted");
        assert_eq!(
            totals.writes_by_cause.iter().sum::<u64>(),
            totals.nvm_writes,
            "provenance decomposes the horizon's writes"
        );
        assert!(totals.energy_pj() > 0);
        assert!(totals.wear.is_some());
    }
}
