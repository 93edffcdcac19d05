//! Output checks: bitwise package digests, the served-quality means,
//! the sequential cold-cache oracle, and the per-seed determinism
//! record that lets a later run of the same seed catch drift.

use crate::cohort::Cohort;
use crate::report::Report;
use fairrec_core::Group;
use fairrec_engine::{EngineConfig, GroupRecommendation, RecommenderEngine};
use fairrec_metrics::package_metrics;
use fairrec_types::{Parallelism, RatingMatrix, Result};
use std::path::PathBuf;

/// FNV-1a over every bit of a served package: items, scores, flags,
/// fairness, value and the member breakdown. Two packages share a
/// digest exactly when they are bitwise equal (up to 64-bit hash
/// collisions).
pub fn digest(rec: &GroupRecommendation) -> u64 {
    let mut h = Fnv::default();
    h.word(rec.items.len() as u64);
    for item in &rec.items {
        h.word(u64::from(item.item.raw()));
        h.word(item.group_relevance.to_bits());
        h.word(u64::from(item.padded));
        for rel in &item.member_relevance {
            h.word(rel.map_or(u64::MAX, f64::to_bits));
        }
    }
    h.word(rec.fairness.to_bits());
    h.word(rec.value.to_bits());
    h.word(rec.pool_size as u64);
    for member in &rec.members {
        h.word(u64::from(member.user.raw()));
        h.word(u64::from(member.satisfied));
        h.word(member.best_package_rank.map_or(u64::MAX, |r| r as u64));
        match member.personal_best {
            Some(best) => {
                h.word(u64::from(best.item.raw()));
                h.word(best.score.to_bits());
            }
            None => h.word(u64::MAX),
        }
    }
    h.0
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Served-package quality, folded in schedule order so the means are
/// bitwise reproducible.
#[derive(Debug, Default, Clone)]
pub struct Quality {
    fairness_sum: f64,
    worst_sum: f64,
    served: u64,
    /// Order-sensitive and order-free folds of the package digests.
    digests: (u64, u64),
}

impl Quality {
    pub fn record(&mut self, rec: &GroupRecommendation) {
        self.fairness_sum += rec.fairness;
        self.worst_sum += package_metrics(rec).worst_member_utility;
        self.served += 1;
        let d = digest(rec);
        self.digests.0 = self.digests.0.rotate_left(5) ^ d;
        self.digests.1 = self.digests.1.wrapping_add(d);
    }

    pub fn fairness_mean(&self) -> f64 {
        self.fairness_sum / self.served.max(1) as f64
    }

    pub fn worst_member_utility(&self) -> f64 {
        self.worst_sum / self.served.max(1) as f64
    }

    /// Reports both means and checks them against the record an earlier
    /// run of the same seed left behind (writing it when there is none).
    pub fn report(&self, report: &mut Report, record_key: &str) {
        report.metric("fairness_mean", self.fairness_mean(), "ratio");
        report.metric("worst_member_utility", self.worst_member_utility(), "ratio");
        let line = format!(
            "{} {:016x} {:016x} {:016x} {:016x}\n",
            self.served,
            self.fairness_mean().to_bits(),
            self.worst_member_utility().to_bits(),
            self.digests.0,
            self.digests.1
        );
        let Some(path) = record_path(record_key) else {
            return;
        };
        match std::fs::read_to_string(&path) {
            Ok(previous) if previous != line => report.error(format!(
                "served packages differ from an earlier run of the same seed \
                 ({}: was {:?}, now {:?})",
                path.display(),
                previous.trim(),
                line.trim()
            )),
            Ok(_) => report.meta("determinism_record", "\"matched\""),
            Err(_) => {
                let written = path
                    .parent()
                    .map(std::fs::create_dir_all)
                    .transpose()
                    .and_then(|_| std::fs::write(&path, &line));
                let state = if written.is_ok() {
                    "written"
                } else {
                    "unwritable"
                };
                report.meta("determinism_record", format!("\"{state}\""));
            }
        }
    }
}

/// Where the determinism record of `key` lives: beside the harness
/// executable (inside the build directory of the checkout), keyed also
/// by a digest of the executable so a rebuilt program starts afresh.
fn record_path(key: &str) -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let mut h = Fnv::default();
    for chunk in std::fs::read(&exe).ok()?.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h.word(u64::from_le_bytes(word));
    }
    let name = format!("{key}-{:016x}.txt", h.0);
    Some(exe.parent()?.join("perfbench-records").join(name))
}

/// A fresh sequential engine with a cold peer cache over `matrix` — the
/// reference every timed output is compared with.
pub fn oracle_engine(
    cohort: &Cohort,
    matrix: RatingMatrix,
    config: EngineConfig,
) -> Result<RecommenderEngine> {
    let profiles = fairrec_data::tsv::read_profiles(&cohort.profiles_tsv[..], &cohort.ontology)?;
    RecommenderEngine::new(
        matrix,
        profiles,
        cohort.ontology.clone(),
        EngineConfig {
            parallelism: Parallelism::Sequential,
            ..config
        },
    )
}

/// Recomputes `(group, z)` on the oracle and compares it bitwise with
/// the served package's digest.
pub fn oracle_check(
    oracle: &RecommenderEngine,
    group: &Group,
    z: usize,
    served: u64,
    report: &mut Report,
    what: &str,
) {
    match oracle.recommend_for_group(group, z) {
        Ok(rec) if digest(&rec) == served => {}
        Ok(_) => report.error(format!(
            "{what}: served package for {:?} z={z} differs from the sequential cold-cache oracle",
            group.members()
        )),
        Err(e) => report.error(format!(
            "{what}: oracle failed on {:?}: {e}",
            group.members()
        )),
    }
}
