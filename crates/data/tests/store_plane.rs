//! Corpus-store data-plane tests: shard round trips are bit-identical to
//! live generation at any thread count, corrupt shards are rejected with
//! typed errors, dedup is invisible to consumers, and interrupted builds
//! resume to identical bytes.

use rhmd_data::config::CorpusConfig;
use rhmd_data::corpus::Corpus;
use rhmd_data::source::EvalSource;
use rhmd_data::store::{CorpusStore, StoreBuilder, SHARD_HEADER_LEN};
use rhmd_data::traced::TracedCorpus;
use rhmd_features::vector::{FeatureKind, FeatureSpec};
use rhmd_runtime::RhmdError;
use rhmd_uarch::CoreConfig;
use std::path::{Path, PathBuf};

fn small_config() -> CorpusConfig {
    CorpusConfig {
        malware_per_family: 2,
        benign_per_class: 2,
        max_instructions: 20_000,
        max_syscalls: 100,
        seed: 0x5708e,
    }
}

fn specs() -> Vec<FeatureSpec> {
    vec![
        FeatureSpec::new(FeatureKind::Memory, 5_000, vec![]),
        FeatureSpec::new(FeatureKind::Architectural, 10_000, vec![]),
    ]
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rhmd-store-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn shard_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "shard"))
        .collect();
    files.sort();
    files
}

#[test]
fn shard_round_trip_is_bit_identical_at_any_thread_count() {
    let config = small_config();
    let dir1 = temp_dir("threads1");
    let dir4 = temp_dir("threads4");
    let s1 = StoreBuilder::new(&dir1, config)
        .specs(specs())
        .threads(1)
        .build()
        .unwrap();
    let s4 = StoreBuilder::new(&dir4, config)
        .specs(specs())
        .threads(4)
        .chunk(3)
        .build()
        .unwrap();
    assert_eq!(s1.programs, config.total_programs());
    assert_eq!(s1.rows, s4.rows);

    // Shard files byte-for-byte identical across thread counts.
    let files1 = shard_files(&dir1);
    let files4 = shard_files(&dir4);
    assert_eq!(files1.len(), 2);
    for (a, b) in files1.iter().zip(&files4) {
        assert_eq!(a.file_name(), b.file_name());
        assert_eq!(std::fs::read(a).unwrap(), std::fs::read(b).unwrap());
    }

    // Mapped views bit-identical to live generation.
    let store = CorpusStore::open(&dir1).unwrap();
    let traced = TracedCorpus::trace(
        Corpus::build(&config),
        config.limits(),
        CoreConfig::default(),
    );
    let (stored, live_source) = (EvalSource::Store(&store), EvalSource::Traced(&traced));
    assert_eq!(stored.len(), live_source.len());
    assert_eq!(stored.labels(), live_source.labels());
    assert_eq!(stored.strata(), live_source.strata());
    for spec in specs() {
        for i in 0..stored.len() {
            let from_store = store.features_of(i, &spec).unwrap();
            let live = live_source.features_of(i, &spec).unwrap();
            assert_eq!(from_store, live, "program {i} spec {}", spec.label());
        }
    }

    std::fs::remove_dir_all(&dir1).ok();
    std::fs::remove_dir_all(&dir4).ok();
}

#[test]
fn store_and_live_sources_have_distinct_identities() {
    let config = small_config();
    let dir = temp_dir("identity");
    StoreBuilder::new(&dir, config)
        .specs(specs())
        .build()
        .unwrap();
    let store = CorpusStore::open(&dir).unwrap();
    let traced = TracedCorpus::trace(
        Corpus::build(&config),
        config.limits(),
        CoreConfig::default(),
    );
    assert_eq!(EvalSource::Traced(&traced).identity(), 0);
    assert_ne!(EvalSource::Store(&store).identity(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// A store serves only its stored specs and no raw traces; both refusals
/// are typed config errors that name the store directory.
#[test]
fn store_guards_refuse_traces_and_unstored_specs_by_name() {
    let config = small_config();
    let dir = temp_dir("guards");
    StoreBuilder::new(&dir, config)
        .specs(specs())
        .build()
        .unwrap();
    let store = CorpusStore::open(&dir).unwrap();
    let source = EvalSource::Store(&store);
    let shown = dir.display().to_string();

    let err = source.traced().unwrap_err();
    assert!(matches!(err, RhmdError::Config(_)), "{err}");
    assert!(err.to_string().contains(&shown), "{err}");

    for spec in specs() {
        source.require_spec(&spec).unwrap();
    }
    let missing = FeatureSpec::new(FeatureKind::Instructions, 5_000, vec![]);
    let err = source.require_spec(&missing).unwrap_err();
    assert!(matches!(err, RhmdError::Config(_)), "{err}");
    let text = err.to_string();
    assert!(text.contains(&shown), "{text}");
    assert!(text.contains("stored: Memory@5k, Architectural@10k"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rebuilding_over_a_finished_store_resumes_to_identical_bytes() {
    let config = small_config();
    let dir = temp_dir("resume");
    let fresh = temp_dir("resume-fresh");
    StoreBuilder::new(&dir, config).specs(specs()).build().unwrap();
    let resumed = StoreBuilder::new(&dir, config).specs(specs()).build().unwrap();
    assert!(resumed.resumed_chunks > 0, "second build should skip journaled chunks");
    StoreBuilder::new(&fresh, config).specs(specs()).build().unwrap();
    for (a, b) in shard_files(&dir).iter().zip(shard_files(&fresh).iter()) {
        assert_eq!(std::fs::read(a).unwrap(), std::fs::read(b).unwrap());
    }
    CorpusStore::open(&dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&fresh).ok();
}

#[test]
fn truncated_and_corrupt_shards_are_rejected_with_typed_errors() {
    let config = small_config();
    let dir = temp_dir("corrupt");
    StoreBuilder::new(&dir, config)
        .specs(vec![specs().remove(0)])
        .build()
        .unwrap();
    let shard = shard_files(&dir).remove(0);
    let original = std::fs::read(&shard).unwrap();

    // Truncated data region.
    std::fs::write(&shard, &original[..original.len() - 8]).unwrap();
    match CorpusStore::open(&dir) {
        Err(RhmdError::Parse { message, .. }) => {
            assert!(message.contains("truncated"), "unexpected message: {message}")
        }
        other => panic!("expected Parse error for truncated shard, got {other:?}"),
    }

    // Flipped byte in the data region.
    let mut corrupt = original.clone();
    corrupt[SHARD_HEADER_LEN + 3] ^= 0xff;
    std::fs::write(&shard, &corrupt).unwrap();
    match CorpusStore::open(&dir) {
        Err(RhmdError::Parse { message, .. }) => {
            assert!(message.contains("checksum"), "unexpected message: {message}")
        }
        other => panic!("expected Parse error for corrupt shard, got {other:?}"),
    }

    // Wrong magic.
    let mut bad_magic = original.clone();
    bad_magic[0] = b'X';
    std::fs::write(&shard, &bad_magic).unwrap();
    match CorpusStore::open(&dir) {
        Err(RhmdError::Parse { message, .. }) => {
            assert!(message.contains("magic"), "unexpected message: {message}")
        }
        other => panic!("expected Parse error for bad magic, got {other:?}"),
    }

    // Unsupported shard version.
    let mut bad_version = original.clone();
    bad_version[8] = 99;
    std::fs::write(&shard, &bad_version).unwrap();
    assert!(matches!(
        CorpusStore::open(&dir),
        Err(RhmdError::Version { found: 99, .. })
    ));

    // Restoring the original bytes makes the store open again.
    std::fs::write(&shard, &original).unwrap();
    CorpusStore::open(&dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_spec_is_a_config_error_naming_the_stored_specs() {
    let config = small_config();
    let dir = temp_dir("missing-spec");
    StoreBuilder::new(&dir, config)
        .specs(vec![specs().remove(0)])
        .build()
        .unwrap();
    let store = CorpusStore::open(&dir).unwrap();
    let other = FeatureSpec::new(FeatureKind::Instructions, 5_000, vec![]);
    match store.features_of(0, &other) {
        Err(RhmdError::Config(message)) => {
            assert!(message.contains(&other.label()), "unexpected message: {message}")
        }
        other => panic!("expected Config error for missing spec, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Dedup semantics: duplicated programs alias the canonical rows exactly
/// and never change what any consumer observes.
#[test]
fn dedup_is_invisible_and_canonical_rows_always_win() {
    let config = small_config();
    let base = Corpus::build(&config);
    let mut programs = base.programs().to_vec();
    // Duplicate program 0 twice and program 3 once, under fresh names —
    // same structure, different identity.
    let mut dup_a = programs[0].clone();
    dup_a.name = "dup-of-0-a".to_string();
    let mut dup_b = programs[0].clone();
    dup_b.name = "dup-of-0-b".to_string();
    let mut dup_c = programs[3].clone();
    dup_c.name = "dup-of-3".to_string();
    programs.push(dup_a);
    programs.push(dup_b);
    programs.push(dup_c);
    let corpus = Corpus::from_programs(programs);
    let n = corpus.len();

    let dir = temp_dir("dedup");
    let summary = StoreBuilder::new(&dir, config)
        .specs(specs())
        .with_corpus(corpus.clone())
        .build()
        .unwrap();
    assert_eq!(summary.programs, n);
    assert_eq!(summary.duplicates, 3);
    assert_eq!(summary.canonical, n - 3);

    let store = CorpusStore::open(&dir).unwrap();
    let manifest = store.manifest();
    assert_eq!(manifest.canonical[n - 3], 0, "dup-of-0-a aliases program 0");
    assert_eq!(manifest.canonical[n - 2], 0, "dup-of-0-b aliases program 0");
    assert_eq!(manifest.canonical[n - 1], 3, "dup-of-3 aliases program 3");
    assert!(manifest.dedup_ratio() > 0.0);

    // Labels still come from each program (not its canonical), and the
    // duplicate's feature rows are bit-identical to the canonical's.
    assert_eq!(store.labels().len(), n);
    for spec in specs() {
        let canon = store.features_of(0, &spec).unwrap();
        for dup in [n - 3, n - 2] {
            assert_eq!(store.features_of(dup, &spec).unwrap(), canon);
        }
        assert_eq!(
            store.features_of(n - 1, &spec).unwrap(),
            store.features_of(3, &spec).unwrap()
        );
    }

    // And dedup never changes verdict inputs: rows equal live generation
    // for every program, duplicates included.
    let traced = TracedCorpus::trace(corpus, config.limits(), CoreConfig::default());
    let spec = specs().remove(0);
    for i in 0..n {
        assert_eq!(
            store.features_of(i, &spec).unwrap(),
            EvalSource::Traced(&traced).features_of(i, &spec).unwrap(),
            "program {i}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
