//! Process-level campaign sharding: deterministic run partitioning,
//! shard artifact parsing, and the byte-identical merge.
//!
//! A campaign expands into an ordered run list; `campaign shard
//! --index i --of n` executes only the runs whose expansion index
//! satisfies `index % n == i` (the [`shard_of`] partition — residue
//! classes, so the same function partitions identically at any `n` and
//! every shard receives an interleaved, load-balanced slice of the
//! grid). Each shard writes an independent flush-per-line journal whose
//! **first line is a [`ShardManifest`] header** identifying the
//! campaign (name, spec digest, total run count) and the shard's
//! position (`index` of `of`); `campaign merge` then reassembles the
//! shards into the single-process artifact.
//!
//! # Byte-identity
//!
//! The merged output is byte-identical to what one `campaign run` over
//! the full spec would have produced, because nothing a row contains
//! depends on *which process* ran it: fault fates are content-addressed
//! ([`crate::fault::FaultStream`]), every scheduling-dependent field is
//! nulled in deterministic output ([`crate::sink::SinkOptions`]), rows
//! are merged in expansion-index order by the same renderer the
//! single-process sink uses ([`crate::sink::write_rows`]), and the
//! summary trailer is recomputed from the merged rows exactly as the
//! single-process run computes it. The CI shard round-trip step and the
//! `shard_merge` integration suite pin this with `diff`.
//!
//! # Validation
//!
//! [`merge_shards`] refuses to produce a silently incomplete artifact:
//! every failure mode is a typed [`MergeError`] naming the offending
//! shard file — a missing or malformed manifest, shards from different
//! campaigns (name / spec digest / total-run mismatch), disagreeing
//! `of`, an out-of-range or duplicated shard index, a missing shard, a
//! row that does not belong to its shard's residue class, a duplicated
//! row, or a truncated shard (a run the manifest promises that no row
//! covers — the signature of a killed shard that was never resumed).

use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize, Value};

use crate::sink::{render_line, FailureRecord, RunRecord, SinkOptions};
use crate::spec::{CampaignSpec, RunSpec};

/// The deterministic partition function: which shard (of `of`) owns run
/// `index`. Residue classes — stable under any `of`, disjoint and
/// exhaustive by construction (the property suite pins both).
pub fn shard_of(index: u64, of: u64) -> u64 {
    index % of.max(1)
}

/// Filters an expanded run list down to the runs shard `index` (of
/// `of`) owns.
pub fn shard_runs(runs: Vec<RunSpec>, index: u64, of: u64) -> Vec<RunSpec> {
    runs.into_iter()
        .filter(|run| shard_of(run.index, of) == index)
        .collect()
}

/// A stable 64-bit digest of the campaign spec (FNV-1a over its
/// canonical JSON), rendered as 16 hex digits. Shards of one campaign
/// carry the same digest; merging shards from different specs is a
/// typed error, not a silently mixed artifact.
pub fn spec_digest(spec: &CampaignSpec) -> String {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in spec.to_json().as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    format!("{h:016x}")
}

/// The identity header a shard file starts with: serialized as the
/// first JSONL line, tagged `"type": "shard"`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardManifest {
    /// Campaign name from the spec.
    pub name: String,
    /// This shard's position in the partition (`0 <= index < of`).
    pub index: u64,
    /// Total number of shards in the partition.
    pub of: u64,
    /// [`spec_digest`] of the campaign spec every shard must share.
    pub spec_digest: String,
    /// Total runs in the **whole** campaign expansion (not this shard):
    /// lets the merge detect truncated shards without re-expanding the
    /// spec.
    pub total_runs: u64,
}

impl ShardManifest {
    /// Builds the manifest for shard `index` of `of` over `spec`, whose
    /// expansion has `total_runs` runs.
    pub fn new(spec: &CampaignSpec, index: u64, of: u64, total_runs: u64) -> ShardManifest {
        ShardManifest {
            name: spec.name.clone(),
            index,
            of,
            spec_digest: spec_digest(spec),
            total_runs,
        }
    }

    /// Renders the manifest as its JSONL header line.
    pub fn render(&self) -> String {
        render_line("shard", self.serialize_to_value(), SinkOptions::default())
            .expect("manifest serialization cannot fail")
    }

    /// The expansion indices this shard owns, in order.
    pub fn expected_indices(&self) -> impl Iterator<Item = u64> + '_ {
        (self.index..self.total_runs).step_by(self.of.max(1) as usize)
    }
}

/// Why a set of shard files cannot be merged (or a shard resumed). Every
/// variant names the offending file where one exists, so the remediation
/// is always one `ls` away.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// No shard files were given.
    NoShards,
    /// A file's first line is not a shard manifest.
    MissingManifest {
        /// The offending file.
        file: String,
        /// What was found instead.
        detail: String,
    },
    /// A shard belongs to a different campaign (or a different partition
    /// arity) than the first shard.
    SpecMismatch {
        /// The offending file.
        file: String,
        /// Which manifest field disagrees.
        field: &'static str,
        /// The value the first shard established.
        expected: String,
        /// The value this shard carries.
        found: String,
    },
    /// A manifest's shard index is not in `0..of`.
    IndexOutOfRange {
        /// The offending file.
        file: String,
        /// The out-of-range index.
        index: u64,
        /// The partition arity.
        of: u64,
    },
    /// Two files claim the same shard index.
    OverlappingShards {
        /// The second file claiming the index.
        file: String,
        /// The file that claimed it first.
        first_file: String,
        /// The contested shard index.
        index: u64,
    },
    /// A shard index in `0..of` has no file.
    MissingShard {
        /// The absent shard index.
        index: u64,
        /// The partition arity.
        of: u64,
    },
    /// A row whose index does not belong to its shard's residue class
    /// (or exceeds the campaign's run count).
    ForeignRow {
        /// The offending file.
        file: String,
        /// The trespassing row index.
        index: u64,
    },
    /// The same row index appears twice within one shard.
    DuplicateRow {
        /// The offending file.
        file: String,
        /// The duplicated row index.
        index: u64,
    },
    /// A run the manifest promises has no row — the shard was
    /// interrupted and never resumed to completion.
    TruncatedShard {
        /// The offending file.
        file: String,
        /// How many promised runs have no row.
        missing: u64,
        /// The lowest missing run index.
        first_missing: u64,
    },
    /// The shard's journal body failed to parse.
    Journal {
        /// The offending file.
        file: String,
        /// The parse error.
        detail: String,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::NoShards => write!(f, "no shard files to merge"),
            MergeError::MissingManifest { file, detail } => {
                write!(f, "{file}: not a shard artifact ({detail})")
            }
            MergeError::SpecMismatch {
                file,
                field,
                expected,
                found,
            } => write!(
                f,
                "{file}: shard belongs to a different campaign — \
                 {field} is {found:?}, other shards have {expected:?}"
            ),
            MergeError::IndexOutOfRange { file, index, of } => {
                write!(
                    f,
                    "{file}: shard index {index} is out of range for --of {of}"
                )
            }
            MergeError::OverlappingShards {
                file,
                first_file,
                index,
            } => write!(
                f,
                "{file}: overlapping shards — index {index} was already \
                 provided by {first_file}"
            ),
            MergeError::MissingShard { index, of } => {
                write!(
                    f,
                    "missing shard {index} of {of}: merge needs all {of} shard files"
                )
            }
            MergeError::ForeignRow { file, index } => write!(
                f,
                "{file}: row {index} does not belong to this shard's partition"
            ),
            MergeError::DuplicateRow { file, index } => {
                write!(f, "{file}: row {index} appears more than once")
            }
            MergeError::TruncatedShard {
                file,
                missing,
                first_missing,
            } => write!(
                f,
                "{file}: truncated shard — {missing} run(s) promised by the \
                 manifest have no row (first missing index {first_missing}); \
                 rerun it with --resume to completion before merging"
            ),
            MergeError::Journal { file, detail } => write!(f, "{file}: {detail}"),
        }
    }
}

impl Error for MergeError {}

/// One parsed shard artifact: its manifest and its rows, each sorted by
/// index.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardFile {
    /// Where the shard was read from (used verbatim in errors).
    pub file: String,
    /// The identity header.
    pub manifest: ShardManifest,
    /// Completed runs, sorted by index.
    pub records: Vec<RunRecord>,
    /// Permanent failures, sorted by index.
    pub failures: Vec<FailureRecord>,
}

/// Parses the manifest header line of a shard file.
///
/// # Errors
///
/// Returns [`MergeError::MissingManifest`] when the first non-blank line
/// is absent, malformed, or not tagged `"shard"`.
pub fn parse_manifest(file: &str, text: &str) -> Result<ShardManifest, MergeError> {
    let missing = |detail: String| MergeError::MissingManifest {
        file: file.to_string(),
        detail,
    };
    let first = text
        .lines()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| missing("the file is empty".to_string()))?;
    let value: Value =
        serde_json::from_str(first).map_err(|e| missing(format!("first line is not JSON: {e}")))?;
    let tag = value.get("type").and_then(Value::as_str).unwrap_or("");
    if tag != "shard" {
        return Err(missing(format!(
            "first line has type {tag:?}, expected \"shard\""
        )));
    }
    ShardManifest::deserialize_from_value(&value)
        .map_err(|e| missing(format!("malformed manifest: {e}")))
}

/// Parses a whole shard file: the manifest header plus its journal body
/// (run / failed rows in any order; a torn final line from a killed
/// writer is tolerated — the completeness check in [`merge_shards`]
/// reports the resulting gap as a truncated shard).
///
/// # Errors
///
/// Returns [`MergeError::MissingManifest`] or [`MergeError::Journal`].
pub fn parse_shard(file: impl Into<String>, text: &str) -> Result<ShardFile, MergeError> {
    let file = file.into();
    let manifest = parse_manifest(&file, text)?;
    let (records, failures) =
        crate::sink::load_journal(text).map_err(|detail| MergeError::Journal {
            file: file.clone(),
            detail: detail.to_string(),
        })?;
    Ok(ShardFile {
        file,
        manifest,
        records,
        failures,
    })
}

/// Validates a set of shards and merges their rows back into the
/// single-process order. All manifests must agree on the campaign
/// (name, spec digest, total runs) and the partition arity; every shard
/// index in `0..of` must appear exactly once; every row must belong to
/// its shard; every run a manifest promises must have a row. Returns
/// the merged `(records, failures)`, each sorted by index.
///
/// # Errors
///
/// Returns the first [`MergeError`] in validation order (manifest
/// consistency, then partition coverage, then per-shard row ownership
/// and completeness), naming the offending file.
pub fn merge_shards(
    shards: &[ShardFile],
) -> Result<(Vec<RunRecord>, Vec<FailureRecord>), MergeError> {
    let first = shards.first().ok_or(MergeError::NoShards)?;
    let reference = &first.manifest;
    // Manifest consistency: all shards describe the same campaign and
    // the same partition.
    for shard in shards {
        let m = &shard.manifest;
        let mismatch = |field: &'static str, expected: String, found: String| {
            Err(MergeError::SpecMismatch {
                file: shard.file.clone(),
                field,
                expected,
                found,
            })
        };
        if m.name != reference.name {
            return mismatch("name", reference.name.clone(), m.name.clone());
        }
        if m.spec_digest != reference.spec_digest {
            return mismatch(
                "spec_digest",
                reference.spec_digest.clone(),
                m.spec_digest.clone(),
            );
        }
        if m.of != reference.of {
            return mismatch("of", reference.of.to_string(), m.of.to_string());
        }
        if m.total_runs != reference.total_runs {
            return mismatch(
                "total_runs",
                reference.total_runs.to_string(),
                m.total_runs.to_string(),
            );
        }
        if m.index >= m.of {
            return Err(MergeError::IndexOutOfRange {
                file: shard.file.clone(),
                index: m.index,
                of: m.of,
            });
        }
    }
    // Partition coverage: each index exactly once, none missing.
    let mut claimed: Vec<Option<&str>> = vec![None; reference.of as usize];
    for shard in shards {
        let slot = &mut claimed[shard.manifest.index as usize];
        if let Some(first_file) = slot {
            return Err(MergeError::OverlappingShards {
                file: shard.file.clone(),
                first_file: (*first_file).to_string(),
                index: shard.manifest.index,
            });
        }
        *slot = Some(&shard.file);
    }
    if let Some(index) = claimed.iter().position(Option::is_none) {
        return Err(MergeError::MissingShard {
            index: index as u64,
            of: reference.of,
        });
    }
    // Row ownership and completeness, then merge.
    let mut records = Vec::new();
    let mut failures = Vec::new();
    for shard in shards {
        let expected: BTreeSet<u64> = shard.manifest.expected_indices().collect();
        let mut seen = BTreeSet::new();
        let rows = shard
            .records
            .iter()
            .map(|r| r.index)
            .chain(shard.failures.iter().map(|f| f.index));
        for index in rows {
            if !expected.contains(&index) {
                return Err(MergeError::ForeignRow {
                    file: shard.file.clone(),
                    index,
                });
            }
            if !seen.insert(index) {
                return Err(MergeError::DuplicateRow {
                    file: shard.file.clone(),
                    index,
                });
            }
        }
        let missing: Vec<u64> = expected.difference(&seen).copied().collect();
        if let Some(&first_missing) = missing.first() {
            return Err(MergeError::TruncatedShard {
                file: shard.file.clone(),
                missing: missing.len() as u64,
                first_missing,
            });
        }
        records.extend(shard.records.iter().cloned());
        failures.extend(shard.failures.iter().cloned());
    }
    records.sort_by_key(|r| r.index);
    failures.sort_by_key(|f| f.index);
    Ok((records, failures))
}

/// Renders a finalized shard artifact: the manifest header, then the
/// shard's rows merged in index order by the same renderer the
/// single-process sink uses — no summary trailer (the merge recomputes
/// it over all shards).
pub fn render_shard(
    manifest: &ShardManifest,
    records: &[RunRecord],
    failures: &[FailureRecord],
    options: SinkOptions,
) -> String {
    let mut buf = Vec::new();
    use std::io::Write as _;
    writeln!(buf, "{}", manifest.render()).expect("in-memory write cannot fail");
    crate::sink::write_rows(&mut buf, records, failures, options)
        .expect("in-memory write cannot fail");
    String::from_utf8(buf).expect("JSON output is UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::tests::sample_record;

    fn spec() -> CampaignSpec {
        CampaignSpec {
            benchmarks: vec!["fir".to_string()],
            ..CampaignSpec::default()
        }
    }

    fn record(index: u64) -> RunRecord {
        RunRecord {
            wall_ms: None,
            ..sample_record(index)
        }
    }

    fn failure(index: u64) -> FailureRecord {
        FailureRecord {
            index,
            benchmark: "fir64".to_string(),
            scale: "fast".to_string(),
            d: 3.0,
            min_neighbors: 3,
            seed: 0,
            repeat: 0,
            error: "injected transient error (config [9, 8], attempt 0)".to_string(),
            attempts: 1,
        }
    }

    /// Builds shard `index` of `of` over a 4-run campaign, with every
    /// owned row present as a record (or, for indices in `fail`, a
    /// failure).
    fn shard(index: u64, of: u64, fail: &[u64]) -> ShardFile {
        let manifest = ShardManifest::new(&spec(), index, of, 4);
        let mut records = Vec::new();
        let mut failures = Vec::new();
        for i in manifest.expected_indices() {
            if fail.contains(&i) {
                failures.push(failure(i));
            } else {
                records.push(record(i));
            }
        }
        ShardFile {
            file: format!("shard-{index}.jsonl"),
            manifest,
            records,
            failures,
        }
    }

    #[test]
    fn partition_is_disjoint_and_exhaustive() {
        for of in [1u64, 2, 3, 4, 7] {
            let mut owned = Vec::new();
            for index in 0..of {
                let m = ShardManifest::new(&spec(), index, of, 10);
                owned.extend(m.expected_indices());
            }
            owned.sort_unstable();
            assert_eq!(owned, (0..10).collect::<Vec<u64>>(), "of={of}");
        }
        assert_eq!(shard_of(7, 3), 1);
        assert_eq!(shard_of(7, 1), 0);
        assert_eq!(shard_of(7, 0), 0, "of is clamped to 1");
    }

    #[test]
    fn spec_digest_tracks_content() {
        let a = spec_digest(&spec());
        assert_eq!(a.len(), 16);
        assert_eq!(a, spec_digest(&spec()), "digest is stable");
        let other = CampaignSpec { seed: 1, ..spec() };
        assert_ne!(a, spec_digest(&other));
    }

    #[test]
    fn manifest_renders_and_reparses() {
        let m = ShardManifest::new(&spec(), 1, 3, 8);
        let line = m.render();
        assert!(line.starts_with("{\"type\":\"shard\",\"name\":\"table1\","));
        let back = parse_manifest("s.jsonl", &line).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn shard_artifact_roundtrips_through_parse() {
        let s = shard(1, 3, &[1]);
        let text = render_shard(&s.manifest, &s.records, &s.failures, SinkOptions::default());
        let back = parse_shard("shard-1.jsonl", &text).unwrap();
        assert_eq!(back.manifest, s.manifest);
        assert_eq!(back.records, s.records);
        assert_eq!(back.failures, s.failures);
    }

    #[test]
    fn merge_reassembles_single_process_order() {
        // Deliberately out of shard order: merge sorts by content.
        let shards = [shard(2, 3, &[]), shard(0, 3, &[0]), shard(1, 3, &[])];
        let (records, failures) = merge_shards(&shards).unwrap();
        assert_eq!(
            records.iter().map(|r| r.index).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(
            failures.iter().map(|f| f.index).collect::<Vec<_>>(),
            vec![0]
        );
    }

    #[test]
    fn merge_names_the_offending_file() {
        assert_eq!(merge_shards(&[]).unwrap_err(), MergeError::NoShards);

        let mut foreign = shard(0, 3, &[]);
        foreign.records.push(record(1)); // belongs to shard 1
        let err = merge_shards(&[foreign, shard(1, 3, &[]), shard(2, 3, &[])]).unwrap_err();
        assert_eq!(
            err,
            MergeError::ForeignRow {
                file: "shard-0.jsonl".to_string(),
                index: 1,
            }
        );
        assert!(err.to_string().contains("shard-0.jsonl"), "{err}");

        let mut duplicated = shard(1, 3, &[]);
        duplicated.records.push(record(1));
        let err = merge_shards(&[shard(0, 3, &[]), duplicated, shard(2, 3, &[])]).unwrap_err();
        assert_eq!(
            err,
            MergeError::DuplicateRow {
                file: "shard-1.jsonl".to_string(),
                index: 1,
            }
        );

        let mut truncated = shard(2, 3, &[]);
        truncated.records.pop();
        let err = merge_shards(&[shard(0, 3, &[]), shard(1, 3, &[]), truncated]).unwrap_err();
        match err {
            MergeError::TruncatedShard {
                ref file,
                missing,
                first_missing,
            } => {
                assert_eq!(file, "shard-2.jsonl");
                assert_eq!(missing, 1);
                // The 4-run grid gives shard 2 exactly {2}; pop removed it.
                assert_eq!(first_missing, 2);
            }
            other => panic!("expected TruncatedShard, got {other:?}"),
        }
        assert!(err.to_string().contains("--resume"), "{err}");

        let err = merge_shards(&[shard(0, 3, &[]), shard(1, 3, &[])]).unwrap_err();
        assert_eq!(err, MergeError::MissingShard { index: 2, of: 3 });

        let mut twice = shard(1, 3, &[]);
        twice.file = "other-1.jsonl".to_string();
        let err = merge_shards(&[shard(0, 3, &[]), shard(1, 3, &[]), twice, shard(2, 3, &[])])
            .unwrap_err();
        assert_eq!(
            err,
            MergeError::OverlappingShards {
                file: "other-1.jsonl".to_string(),
                first_file: "shard-1.jsonl".to_string(),
                index: 1,
            }
        );

        let mut alien = shard(1, 3, &[]);
        alien.manifest.spec_digest = "0000000000000000".to_string();
        let err = merge_shards(&[shard(0, 3, &[]), alien, shard(2, 3, &[])]).unwrap_err();
        match err {
            MergeError::SpecMismatch {
                ref file, field, ..
            } => {
                assert_eq!(file, "shard-1.jsonl");
                assert_eq!(field, "spec_digest");
            }
            other => panic!("expected SpecMismatch, got {other:?}"),
        }
        assert!(err.to_string().contains("different campaign"), "{err}");

        let mut rogue = shard(1, 3, &[]);
        rogue.manifest.index = 9;
        let err = merge_shards(&[shard(0, 3, &[]), rogue, shard(2, 3, &[])]).unwrap_err();
        assert_eq!(
            err,
            MergeError::IndexOutOfRange {
                file: "shard-1.jsonl".to_string(),
                index: 9,
                of: 3,
            }
        );
    }

    #[test]
    fn parse_rejects_files_without_manifests() {
        let err = parse_manifest("x.jsonl", "").unwrap_err();
        assert!(err.to_string().contains("empty"), "{err}");
        let err = parse_manifest("x.jsonl", "not json\n").unwrap_err();
        assert!(err.to_string().contains("not JSON"), "{err}");
        let s = shard(0, 1, &[]);
        let headless = render_shard(&s.manifest, &s.records, &s.failures, SinkOptions::default())
            .lines()
            .skip(1)
            .collect::<Vec<_>>()
            .join("\n");
        let err = parse_manifest("x.jsonl", &headless).unwrap_err();
        assert!(err.to_string().contains("type \"run\""), "{err}");
    }

    #[test]
    fn parse_tolerates_a_torn_tail() {
        let s = shard(0, 1, &[]);
        let mut text = render_shard(&s.manifest, &s.records, &s.failures, SinkOptions::default());
        text.push_str("{\"type\":\"run\",\"index\":9,\"ben");
        let parsed = parse_shard("torn.jsonl", &text).unwrap();
        assert_eq!(parsed.records.len(), s.records.len());
    }
}
