//! Property tests of the binary summary format (`slugger_core::storage`):
//!
//! * `write_summary` → `read_summary` preserves the **canonical form** of the
//!   model — the id-free structure (member sets, parent links, signed edges) —
//!   not merely `encoding_cost`;
//! * on summaries a streaming scenario produces, `decode(encode(s))` equals a
//!   compacted clone of `s` field by field, child order included, and a stream
//!   resumed from the bytes mid-stream runs on exactly like the live one;
//! * `read_summary` returns `Err` — it must **never panic or abort** — on
//!   arbitrary byte soup, on every truncation of a valid encoding, and on
//!   bit-flipped encodings (where a flip may also legitimately decode to a
//!   *different but internally consistent* summary, e.g. a toggled edge sign).

// The vendored `proptest!` macro expands recursively per statement.
#![recursion_limit = "256"]

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use slugger_core::incremental::{IncrementalConfig, IncrementalSummarizer};
use slugger_core::model::{EdgeSign, HierarchicalSummary};
use slugger_core::storage::{decode_summary, encode_summary, read_summary, write_summary};
use slugger_core::{Parallelism, Slugger, SluggerConfig};
use slugger_graph::gen::{caveman, CavemanConfig};
use slugger_graph::stream::{stream_batches, StreamConfig};
use slugger_graph::Graph;
use std::collections::{BTreeMap, BTreeSet};

/// The id-free canonical form of a summary: alive supernodes keyed by their member
/// sets (which are unique — members strictly grow up the hierarchy and partition
/// `V` across trees), each mapped to its parent's member set, plus the p/n-edges
/// keyed by both endpoints' member sets.  Storage round-trips may renumber the
/// arena (dead slots are not serialized), so this — not raw ids — is what must be
/// preserved.
type Canonical = (
    usize,
    BTreeMap<Vec<u32>, Option<Vec<u32>>>,
    BTreeSet<(Vec<u32>, Vec<u32>, i32)>,
);

fn canonical(summary: &HierarchicalSummary) -> Canonical {
    let mut nodes: BTreeMap<Vec<u32>, Option<Vec<u32>>> = BTreeMap::new();
    for id in 0..summary.arena_len() as u32 {
        if !summary.is_alive(id) {
            continue;
        }
        let members = summary.members(id).to_vec();
        let parent = summary.parent(id).map(|p| summary.members(p).to_vec());
        assert!(
            nodes.insert(members, parent).is_none(),
            "alive member sets must be unique"
        );
    }
    let mut edges: BTreeSet<(Vec<u32>, Vec<u32>, i32)> = BTreeSet::new();
    for ((a, b), sign) in summary.pn_edges() {
        let ma = summary.members(a).to_vec();
        let mb = summary.members(b).to_vec();
        let (x, y) = if ma <= mb { (ma, mb) } else { (mb, ma) };
        edges.insert((x, y, sign.weight()));
    }
    (summary.num_subnodes(), nodes, edges)
}

/// A random hierarchical summary: `merges` random root merges over `n` leaves,
/// then random p/n-edges between alive supernodes (self-loops included).
fn built_summary(n: usize, merges: usize, seed: u64) -> HierarchicalSummary {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut summary = HierarchicalSummary::identity(n);
    for _ in 0..merges {
        let roots: Vec<u32> = summary.roots().collect();
        if roots.len() < 2 {
            break;
        }
        let i = rng.random_range(0..roots.len());
        let mut j = rng.random_range(0..roots.len() - 1);
        if j >= i {
            j += 1;
        }
        summary.merge_roots(roots[i], roots[j]);
    }
    let alive: Vec<u32> = (0..summary.arena_len() as u32)
        .filter(|&id| summary.is_alive(id))
        .collect();
    for _ in 0..rng.random_range(0..2 * n + 1) {
        let a = alive[rng.random_range(0..alive.len())];
        let b = alive[rng.random_range(0..alive.len())];
        let sign = if rng.random_bool(0.7) {
            EdgeSign::Positive
        } else {
            EdgeSign::Negative
        };
        summary.set_edge(a, b, sign);
    }
    summary
}

fn roundtrip(summary: &HierarchicalSummary) -> HierarchicalSummary {
    let mut buffer = Vec::new();
    write_summary(summary, &mut buffer).expect("writing to a Vec cannot fail");
    read_summary(&buffer[..]).expect("a written summary must read back")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn roundtrip_preserves_the_canonical_form(
        n in 2usize..40,
        merges in 0usize..30,
        seed in 0u64..1_000,
    ) {
        let summary = built_summary(n, merges, seed);
        let restored = roundtrip(&summary);
        restored.validate().unwrap();
        assert_eq!(canonical(&restored), canonical(&summary));
        assert_eq!(restored.encoding_cost(), summary.encoding_cost());
        // And the roundtrip is idempotent: re-serializing the restored summary
        // yields the identical byte stream (ids are canonical after one pass).
        let restored_again = roundtrip(&restored);
        assert_eq!(canonical(&restored_again), canonical(&restored));
    }

    #[test]
    fn pruned_slugger_output_roundtrips(
        n in 12usize..48,
        edges in proptest::collection::vec((0u32..48, 0u32..48), 8..120),
        seed in 0u64..64,
    ) {
        let edges: Vec<(u32, u32)> = edges
            .into_iter()
            .map(|(u, v)| (u % n as u32, v % n as u32))
            .collect();
        let graph = Graph::from_edges(n, edges);
        let outcome = Slugger::new(SluggerConfig {
            iterations: 3,
            max_candidate_size: 32,
            max_shingle_splits: 3,
            seed,
            ..SluggerConfig::default()
        })
        .summarize(&graph);
        // Slugger output is pruned: multi-arity supernodes and dead arena slots —
        // exactly what forces the reader to renumber.
        let restored = roundtrip(&outcome.summary);
        restored.validate().unwrap();
        assert_eq!(canonical(&restored), canonical(&outcome.summary));
        assert_eq!(
            slugger_core::decode::decode_full(&restored).edge_set(),
            graph.edge_set(),
            "restored summary must still decode to the input graph"
        );
    }

    #[test]
    fn truncations_of_a_valid_encoding_error_out(
        n in 2usize..24,
        merges in 0usize..16,
        seed in 0u64..1_000,
    ) {
        let summary = built_summary(n, merges, seed);
        let mut buffer = Vec::new();
        write_summary(&summary, &mut buffer).unwrap();
        for len in 0..buffer.len() {
            // Every strict prefix is missing declared payload: Err, never a panic.
            assert!(
                read_summary(&buffer[..len]).is_err(),
                "truncation to {len} of {} bytes must fail to parse",
                buffer.len()
            );
        }
    }

    #[test]
    fn bit_flips_never_panic(
        n in 2usize..24,
        merges in 0usize..16,
        seed in 0u64..1_000,
        flip in (0usize..4_096, 0u8..8),
    ) {
        let summary = built_summary(n, merges, seed);
        let mut buffer = Vec::new();
        write_summary(&summary, &mut buffer).unwrap();
        let (pos, bit) = flip;
        let pos = pos % buffer.len();
        buffer[pos] ^= 1 << bit;
        // A flip may still decode (e.g. a toggled edge sign); the contract is
        // "no panic, and whatever parses is internally consistent".
        if let Ok(mutated) = read_summary(&buffer[..]) {
            mutated.validate().unwrap();
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in proptest::collection::vec(0u8..=255u8, 0usize..512),
    ) {
        if let Ok(parsed) = read_summary(&bytes[..]) {
            parsed.validate().unwrap();
        }
    }

    #[test]
    fn arbitrary_bytes_with_valid_magic_never_panic(
        tail in proptest::collection::vec(0u8..=255u8, 0usize..256),
    ) {
        // Force the parser past the header check so the fuzz reaches the count and
        // table handling.
        let mut bytes = slugger_core::storage::MAGIC.to_vec();
        bytes.push(slugger_core::storage::VERSION);
        bytes.extend_from_slice(&tail);
        if let Ok(parsed) = read_summary(&bytes[..]) {
            parsed.validate().unwrap();
        }
    }
}

/// Every field of a summary under compacted ids, in arena order: each slot's
/// parent, children (in stored order) and members, plus the sorted p/n-edges.
/// Compaction renumbers order-preservingly, exactly as a storage round trip
/// does, so two summaries with the same content and child order compare equal.
type Fields = (
    Vec<(Option<u32>, Vec<u32>, Vec<u32>)>,
    Vec<((u32, u32), i32)>,
);

fn fields(summary: &HierarchicalSummary) -> Fields {
    let mut s = summary.clone();
    s.compact();
    let nodes = (0..s.arena_len() as u32)
        .map(|id| {
            assert!(s.is_alive(id), "a compacted arena is dense");
            (
                s.parent(id),
                s.children(id).to_vec(),
                s.members(id).to_vec(),
            )
        })
        .collect();
    let mut edges: Vec<((u32, u32), i32)> =
        s.pn_edges().map(|(k, sign)| (k, sign.weight())).collect();
    edges.sort_unstable();
    (nodes, edges)
}

/// Where two [`fields`] first differ (`None` when they are equal), short
/// enough for an assertion message on a 20k-node summary.
fn first_difference(left: &Fields, right: &Fields) -> Option<String> {
    if let Some(id) =
        (0..left.0.len().max(right.0.len())).find(|&i| left.0.get(i) != right.0.get(i))
    {
        return Some(format!(
            "supernode {id}: {:?} vs {:?}",
            left.0.get(id),
            right.0.get(id)
        ));
    }
    let i = (0..left.1.len().max(right.1.len())).find(|&i| left.1.get(i) != right.1.get(i))?;
    Some(format!(
        "edge #{i}: {:?} vs {:?}",
        left.1.get(i),
        right.1.get(i)
    ))
}

fn bytes_roundtrip(summary: &HierarchicalSummary) -> HierarchicalSummary {
    decode_summary(&encode_summary(summary)).expect("an encoded summary must decode")
}

/// `decode(encode(s))` equals a compacted clone of `s` field by field — child
/// order included — on every summary a scenario stream produces.
#[test]
fn decoding_an_encoded_stream_summary_equals_its_compacted_clone() {
    for scenario in slugger_scenarios::registry() {
        let stream = scenario.instantiate(0.015, 4, 29).collect_stream();
        let slugger = Slugger::new(SluggerConfig {
            iterations: 3,
            seed: 7,
            ..SluggerConfig::default()
        });
        let mut inc = IncrementalSummarizer::bootstrap(
            &stream.initial,
            &slugger,
            IncrementalConfig::default(),
        );
        for batch in 0..=stream.batches.len() {
            if batch > 0 {
                inc.resummarize(&stream.batches[batch - 1]);
            }
            let restored = fields(&bytes_roundtrip(inc.summary()));
            let diff = first_difference(&restored, &fields(inc.summary()));
            assert!(
                diff.is_none(),
                "scenario {}, batch {batch}: the round trip changed {}",
                scenario.name,
                diff.unwrap_or_default()
            );
        }
    }
}

/// A stream resumed from `read_summary(write_summary(..))` partway through
/// runs the following batches exactly like the live stream, child order
/// included.  Storage rebuilds children in ascending id order, so this holds
/// only while the live model keeps them ascending too.
#[test]
fn a_stream_resumed_from_bytes_matches_the_live_stream() {
    const STREAM_BATCHES: usize = 84;
    const RESUME_AT: usize = 20;
    const CHECKED_BATCHES: usize = 12;
    let target = caveman(&CavemanConfig {
        num_nodes: 20_000,
        num_cliques: 2_500,
        min_clique: 5,
        max_clique: 10,
        rewire_probability: 0.03,
        ..CavemanConfig::default()
    });
    let (initial, batches) = stream_batches(
        &target,
        &StreamConfig {
            initial_fraction: 0.9,
            num_batches: STREAM_BATCHES,
            churn: 0.25,
            seed: 2,
        },
    );
    let slugger = Slugger::new(SluggerConfig {
        iterations: 5,
        parallelism: Parallelism::Sequential,
        ..SluggerConfig::default()
    });
    let config = IncrementalConfig {
        parallelism: Parallelism::Sequential,
        ..IncrementalConfig::default()
    };
    let mut live = IncrementalSummarizer::bootstrap(&initial, &slugger, config);
    for delta in &batches[..RESUME_AT] {
        live.resummarize(delta);
    }
    let mut buffer = Vec::new();
    write_summary(live.summary(), &mut buffer).unwrap();
    let mut resumed = IncrementalSummarizer::resume(
        read_summary(&buffer[..]).unwrap(),
        &live.graph().to_graph(),
        config,
        live.epoch(),
        live.batches(),
    )
    .unwrap();
    for (i, delta) in batches[RESUME_AT..RESUME_AT + CHECKED_BATCHES]
        .iter()
        .enumerate()
    {
        live.resummarize(delta);
        resumed.resummarize(delta);
        let diff = first_difference(&fields(resumed.summary()), &fields(live.summary()));
        assert!(
            diff.is_none(),
            "batch {} after resuming diverged from the live stream at {}",
            RESUME_AT + i,
            diff.unwrap_or_default()
        );
    }
}
