//! Adversarial input for the CSR validator: a seeded mutation fuzzer and
//! the allocation bounds it checks, measured by a counting global
//! allocator in this test binary.
//!
//! Every case starts from one valid `.csr` file of a small corpus and
//! applies one to three mutations: bit flips, truncation, inflated `n`,
//! `m` and offset words, spliced rows, overwritten neighbor words, and a
//! re-declared `m` that makes the file length consistent again. Most
//! cases are then re-sealed with a valid checksum, so the mutation
//! reaches the structural checks instead of stopping at the digest. Each
//! case is opened through both backings, `open_mapped` (where the
//! platform maps) and `open_owned`, and three invariants must hold:
//!
//! 1. opening never panics, and both backings give the same answer;
//! 2. its peak allocation stays within [`bound`], a small multiple of
//!    the file length, and an accepted store holds no full-row transpose;
//! 3. an accepted file equals `write_csr(store.to_graph())` byte for
//!    byte: the format has one encoding per graph.
//!
//! A failure names the case's seed; `check_case(seed)` replays it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use triad_graph::generators::gnp;
use triad_graph::store::{write_csr, StoreError, HEADER_BYTES};
use triad_graph::{CsrStore, Graph};

#[path = "../../../tests/support/fuzz.rs"]
mod fuzz;
use fuzz::{mix64, peak_of, Rng};

/// What opening may allocate per file byte: the owned backing decodes
/// the two sections (the file minus its header) into vectors.
const PER_BYTE: usize = 2;
/// Fixed allowance: the owned reader's 64 KiB chunk buffer, the path,
/// and error strings.
const SLACK: usize = 96 << 10;

/// The allocation bound for opening a file of `len` bytes.
fn bound(len: usize) -> usize {
    PER_BYTE * len + SLACK
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("triad-csr-fuzz-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The bytes `write_csr` produces for `g`, written under `dir`.
fn encode(dir: &Path, tag: &str, g: &Graph) -> Vec<u8> {
    let path = dir.join(format!("{tag}.csr"));
    write_csr(&path, g).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

/// Valid files: empty and edgeless graphs, small shapes with empty rows
/// in every position, a complete graph and a sparse random one.
fn corpus(dir: &Path) -> Vec<Vec<u8>> {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let graphs = [
        Graph::from_edges(0, []),
        Graph::from_edges(1, []),
        Graph::from_edges(3, [(0, 1), (0, 2), (1, 2)]),
        Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
        Graph::from_edges(9, (1..9).map(|v| (0, v))),
        Graph::from_edges(12, [(1, 3), (2, 3), (4, 9)]),
        Graph::from_edges(6, (0..6u32).flat_map(|u| (u + 1..6).map(move |v| (u, v)))),
        gnp(40, 0.15, &mut rng),
    ];
    graphs
        .iter()
        .enumerate()
        .map(|(i, g)| encode(dir, &format!("corpus-{i}"), g))
        .collect()
}

fn word_at(bytes: &[u8], at: usize) -> Option<u64> {
    bytes
        .get(at..at + 8)
        .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
}

fn put_word(bytes: &mut [u8], at: usize, value: u64) {
    if let Some(b) = bytes.get_mut(at..at + 8) {
        b.copy_from_slice(&value.to_le_bytes());
    }
}

/// A value a count or offset word should never hold, or a plausible
/// neighbour of its old value.
fn inflated(old: u64, len: usize, rng: &mut Rng) -> u64 {
    match rng.below(8) {
        0 => u64::MAX,
        1 => u64::from(u32::MAX),
        2 => u64::from(u32::MAX) + 1,
        3 => old.wrapping_add(1),
        4 => old.wrapping_sub(1),
        5 => old.saturating_mul(2).saturating_add(1),
        6 => len as u64,
        _ => rng.next() % 64,
    }
}

/// Where the adjacency section starts, by the header's `n`, if the
/// file is long enough to say.
fn adj_start(bytes: &[u8]) -> Option<usize> {
    let n = usize::try_from(word_at(bytes, 16)?).ok()?;
    let at = n
        .checked_add(1)?
        .checked_mul(8)?
        .checked_add(HEADER_BYTES)?;
    (at <= bytes.len()).then_some(at)
}

/// Re-seals `bytes` with the docs/IO.md lane checksum of its payload,
/// as the writer would; a file too short to hold its offsets is left
/// as it is.
fn seal(bytes: &mut [u8]) {
    const IV: u64 = 0x9E37_79B9_7F4A_7C15;
    let Some(adj_at) = adj_start(bytes) else {
        return;
    };
    let words = [16, 24]
        .into_iter()
        .chain((HEADER_BYTES..adj_at).step_by(8))
        .map(|at| word_at(bytes, at).unwrap())
        .chain(
            bytes[adj_at..]
                .chunks_exact(4)
                .map(|c| u64::from(u32::from_le_bytes(c.try_into().unwrap()))),
        );
    let mut lanes = [IV, IV + 1, IV + 2, IV + 3];
    for (i, w) in words.enumerate() {
        lanes[i % 4] = mix64(lanes[i % 4] ^ w);
    }
    put_word(bytes, 32, lanes.into_iter().fold(IV, |s, l| mix64(s ^ l)));
}

/// One fuzz case: a corpus file, one to three mutations, usually
/// re-sealed.
fn case(seed: u64, corpus: &[Vec<u8>]) -> Vec<u8> {
    let mut rng = Rng(seed);
    let mut bytes = corpus[rng.below(corpus.len())].clone();
    for _ in 0..1 + rng.below(3) {
        let len = bytes.len();
        match rng.below(8) {
            0 if len > 0 => {
                let at = rng.below(len);
                bytes[at] ^= 1 << rng.below(8);
            }
            1 => bytes.truncate(rng.below(len + 1)),
            2 => {
                let old = word_at(&bytes, 16).unwrap_or(0);
                put_word(&mut bytes, 16, inflated(old, len, &mut rng));
            }
            3 => {
                let old = word_at(&bytes, 24).unwrap_or(0);
                put_word(&mut bytes, 24, inflated(old, len, &mut rng));
            }
            4 => {
                if let Some(adj_at) = adj_start(&bytes) {
                    let at = HEADER_BYTES + 8 * rng.below((adj_at - HEADER_BYTES) / 8);
                    let old = word_at(&bytes, at).unwrap_or(0);
                    put_word(&mut bytes, at, inflated(old, len, &mut rng));
                }
            }
            5 => {
                // Splice a run of rows (neighbor words) from any corpus
                // file into this file's adjacency section.
                let other = &corpus[rng.below(corpus.len())];
                if let (Some(from_at), Some(to_at)) = (adj_start(other), adj_start(&bytes)) {
                    let words = (other.len() - from_at) / 4;
                    let first = rng.below(words + 1);
                    let count = rng.below(words - first + 1);
                    let chunk = other[from_at + 4 * first..from_at + 4 * (first + count)].to_vec();
                    let at = to_at + 4 * rng.below((bytes.len() - to_at) / 4 + 1);
                    if rng.below(2) == 0 {
                        bytes.splice(at..at, chunk);
                    } else {
                        let end = (at + chunk.len()).min(bytes.len());
                        bytes.splice(at..end, chunk);
                    }
                }
            }
            6 => {
                // One neighbor word to any value up to just past `n`.
                if let Some(adj_at) = adj_start(&bytes) {
                    let words = (bytes.len() - adj_at) / 4;
                    if words > 0 {
                        let at = adj_at + 4 * rng.below(words);
                        let n = word_at(&bytes, 16).unwrap_or(0);
                        let value = (rng.next() % n.saturating_add(2)) as u32;
                        bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
                    }
                }
            }
            _ => {
                // Re-declare `m` from the file's length, so the geometry
                // checks pass and the sections are read.
                if let Some(adj_at) = adj_start(&bytes) {
                    let words = (bytes.len() - adj_at) / 4;
                    bytes.truncate(adj_at + 4 * words);
                    put_word(&mut bytes, 24, words as u64);
                }
            }
        }
    }
    if rng.below(4) != 0 {
        seal(&mut bytes);
    }
    bytes
}

type Open = fn(&Path) -> Result<CsrStore, StoreError>;

/// Every backing this platform has, by name.
fn backings() -> Vec<(&'static str, Open)> {
    let mut out: Vec<(&'static str, Open)> = vec![("owned", |p| CsrStore::open_owned(p))];
    #[cfg(all(unix, target_endian = "little"))]
    out.push(("mapped", |p| CsrStore::open_mapped(p)));
    out
}

/// Opens one case through every backing and checks the three
/// invariants, naming `seed` in any failure. Returns whether the file
/// was accepted.
fn check(seed: u64, bytes: &[u8], dir: &Path, tag: &str) -> bool {
    let path = dir.join(format!("{tag}.csr"));
    std::fs::write(&path, bytes).unwrap();
    let replay = format!("replay with check_case({seed:#018x})");
    let limit = bound(bytes.len());
    let mut answers = Vec::new();
    for (name, open) in backings() {
        let (opened, peak) = peak_of(|| catch_unwind(AssertUnwindSafe(|| open(&path))));
        let opened = opened.unwrap_or_else(|_| {
            panic!("csr fuzz case {seed:#018x}: {name} open panicked; {replay}")
        });
        assert!(
            peak <= limit,
            "csr fuzz case {seed:#018x}: {name} open of a {}-byte file allocated {peak} bytes, \
             bound {limit}; {replay}",
            bytes.len()
        );
        match opened {
            Ok(store) => {
                let sections = if store.mapped() {
                    0
                } else {
                    bytes.len() - HEADER_BYTES
                };
                assert_eq!(
                    store.owned_bytes(),
                    sections,
                    "csr fuzz case {seed:#018x}: {name} open built more than its sections; {replay}"
                );
                let again = catch_unwind(AssertUnwindSafe(|| {
                    encode(dir, &format!("{tag}-again"), &store.to_graph())
                }))
                .unwrap_or_else(|_| {
                    panic!(
                        "csr fuzz case {seed:#018x}: an accepted {name} store is not a graph; {replay}"
                    )
                });
                assert!(
                    again == bytes,
                    "csr fuzz case {seed:#018x}: an accepted file is not the encoding of its \
                     graph; {replay}"
                );
                answers.push(None);
            }
            Err(e) => answers.push(Some(e.to_string())),
        }
    }
    assert!(
        answers.windows(2).all(|w| w[0] == w[1]),
        "csr fuzz case {seed:#018x}: backings disagree: {answers:?}; {replay}"
    );
    std::fs::remove_file(&path).ok();
    answers[0].is_none()
}

/// Replays one fuzz case by its seed.
#[allow(dead_code)]
fn check_case(seed: u64) {
    let dir = scratch_dir("replay");
    let corpus = corpus(&dir);
    check(seed, &case(seed, &corpus), &dir, "replay");
    std::fs::remove_dir_all(&dir).ok();
}

/// Cases per `cargo test` run: a fixed budget, the same cases each run.
const ITERATIONS: u64 = 10_000;

#[test]
fn mutated_files_never_panic_overallocate_or_reencode_differently() {
    let dir = scratch_dir("mutate");
    let corpus = corpus(&dir);
    // Every corpus file opens and re-encodes to itself, unmutated.
    for (i, bytes) in corpus.iter().enumerate() {
        assert!(
            check(0, bytes, &dir, "fuzz"),
            "corpus file {i} does not open"
        );
    }
    let mut accepted = 0;
    for i in 0..ITERATIONS {
        let seed = mix64(0x4353_5246_555A_5A00 ^ i);
        accepted += usize::from(check(seed, &case(seed, &corpus), &dir, "fuzz"));
    }
    // The mutations must leave some files valid, or invariant 3 checks
    // nothing.
    assert!(
        accepted > ITERATIONS as usize / 50,
        "only {accepted} mutated files were accepted"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_header_declaring_the_largest_geometry_allocates_nothing_for_it() {
    // A 40-byte file claiming 2³² − 1 vertices and as many edges as fit
    // the platform: refused from the header and the file length alone.
    let dir = scratch_dir("header");
    let mut bytes = encode(&dir, "header-seed", &Graph::from_edges(0, []));
    bytes.truncate(HEADER_BYTES);
    put_word(&mut bytes, 16, u64::from(u32::MAX));
    put_word(&mut bytes, 24, u64::MAX / 8);
    let path = dir.join("giant-header.csr");
    std::fs::write(&path, &bytes).unwrap();
    for (name, open) in backings() {
        let (opened, peak) = peak_of(|| open(&path));
        assert!(
            matches!(opened, Err(StoreError::Truncated { .. })),
            "{name}: {opened:?}"
        );
        assert!(
            peak <= SLACK,
            "{name}: a 40-byte file allocated {peak} bytes"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
