//! Property tests of the binary persistence bodies: every persisted
//! vector round-trips bit for bit (`to_bits`), `-0.0`, subnormals,
//! `±f64::MAX` and NaN payloads included, and a reader accepts exactly the
//! values the text formats before it accepted — every finite value a
//! kind's `from_parts` takes, and nothing non-finite.

use privpath::core::baselines::SyntheticGraphRelease;
use privpath::core::shortest_path::{ShortestPathParams, ShortestPathRelease};
use privpath::core::tree_distance::{TreeAllPairsRelease, TreeSingleSourceRelease};
use privpath::engine::{read_release, write_release, AnyRelease, SharedTopology};
use privpath::graph::generators::{connected_gnm, random_tree_prufer};
use privpath::graph::io::{
    put_f64s, read_body, read_weights_binary, take_f64s, write_body, write_weights_binary,
};
use privpath::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Values at the edges of the `f64` encoding.
const SPECIALS: [f64; 12] = [
    0.0,
    -0.0,
    f64::MIN_POSITIVE,
    -f64::MIN_POSITIVE,
    f64::MAX,
    -f64::MAX,
    f64::EPSILON,
    1e-310,
    -1e-310,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

/// `len` values, about a quarter of them from [`SPECIALS`] (plus the
/// smallest subnormal and a NaN with a payload), the rest arbitrary bit
/// patterns.
fn mixed_values(seed: u64, len: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| match rng.gen_range(0..8u32) {
            0 => SPECIALS[rng.gen_range(0..SPECIALS.len())],
            1 => f64::from_bits(1),
            2 => f64::from_bits(0x7ff8_0000_dead_beef),
            _ => f64::from_bits(rng.gen()),
        })
        .collect()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// A standalone all-pairs-baseline v4 file carrying `matrix` verbatim.
fn all_pairs_file(n: usize, matrix: &[f64]) -> Vec<u8> {
    let mut file = format!(
        "privpath-release v4\nkind all-pairs-baseline\nlabel x\neps 1.0\ndelta 0.0\n\
         accuracy none\nn {n}\nnoise_scale 2.0\nmatrix {}\n",
        matrix.len()
    )
    .into_bytes();
    let mut body = Vec::new();
    put_f64s(&mut body, matrix);
    write_body(&mut file, &body).unwrap();
    file
}

fn read_back(release: &AnyRelease, shared: Option<SharedTopology<'_>>) -> AnyRelease {
    let mut buf = Vec::new();
    write_release(&mut buf, "x", 1.0, 0.0, None, release, shared).unwrap();
    read_release(buf.as_slice(), shared).unwrap().release
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn body_vectors_round_trip_by_bits(seed in any::<u64>(), len in 0usize..64) {
        let values = mixed_values(seed, len);
        let mut body = Vec::new();
        put_f64s(&mut body, &values);
        let mut file = Vec::new();
        write_body(&mut file, &body).unwrap();
        let read = read_body(&mut file.as_slice(), Some(8 * len)).unwrap();
        let back = take_f64s(&mut read.as_slice(), len).unwrap();
        prop_assert_eq!(bits(&back), bits(&values));
    }

    #[test]
    fn readers_accept_exactly_the_finite_values(seed in any::<u64>(), n in 1usize..6) {
        // The all-pairs matrix: any finite value, nothing else.
        let matrix = mixed_values(seed, n * n);
        let finite = matrix.iter().all(|v| v.is_finite());
        match read_release(all_pairs_file(n, &matrix).as_slice(), None) {
            Ok(stored) => {
                prop_assert!(finite, "a non-finite matrix was accepted");
                let AnyRelease::AllPairsBaseline(r) = stored.release else {
                    return Err(TestCaseError::fail("kind changed"));
                };
                prop_assert_eq!(bits(r.matrix()), bits(&matrix));
            }
            Err(EngineError::Persist(_)) => prop_assert!(!finite, "a finite matrix was refused"),
            Err(other) => return Err(TestCaseError::fail(format!("untyped error {other:?}"))),
        }
        // The store's private weights file: the same rule.
        let weights = mixed_values(seed ^ 1, n * 3);
        let mut file = format!("privpath-weights v2\nlen {}\n", weights.len()).into_bytes();
        let mut body = Vec::new();
        put_f64s(&mut body, &weights);
        write_body(&mut file, &body).unwrap();
        match read_weights_binary(file.as_slice()) {
            Ok(back) => {
                prop_assert!(weights.iter().all(|v| v.is_finite()));
                prop_assert_eq!(bits(back.as_slice()), bits(&weights));
                let mut again = Vec::new();
                write_weights_binary(&mut again, &back).unwrap();
                prop_assert_eq!(again, file);
            }
            Err(_) => prop_assert!(weights.iter().any(|v| !v.is_finite())),
        }
    }

    #[test]
    fn release_vectors_round_trip_by_bits(seed in any::<u64>(), n in 5usize..12) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = connected_gnm(n, 2 * n, &mut rng);
        // Released weights must be finite and nonnegative (`-0.0` is):
        // keep the specials that are.
        let weights: Vec<f64> = [-0.0, f64::from_bits(1), f64::MAX]
            .into_iter()
            .chain(mixed_values(seed, 4 * n).into_iter().map(f64::abs))
            .filter(|v| v.is_finite())
            .chain(std::iter::repeat(-0.0))
            .take(topo.num_edges())
            .collect();
        let released = EdgeWeights::new(weights.clone()).unwrap();
        let params = ShortestPathParams::new(Epsilon::new(1.0).unwrap(), 0.1).unwrap();
        let shared = SharedTopology { topology: &topo, checksum: seed };
        let sp = AnyRelease::ShortestPath(
            ShortestPathRelease::from_parts(topo.clone(), released.clone(), params, 0.5).unwrap(),
        );
        let sg = AnyRelease::SyntheticGraph(
            SyntheticGraphRelease::from_parts(topo.clone(), released, 3.0).unwrap(),
        );
        for release in [&sp, &sg] {
            for back in [read_back(release, None), read_back(release, Some(shared))] {
                let got = match &back {
                    AnyRelease::ShortestPath(r) => r.released_weights().as_slice(),
                    AnyRelease::SyntheticGraph(r) => r.released_weights().as_slice(),
                    _ => return Err(TestCaseError::fail("kind changed")),
                };
                prop_assert_eq!(bits(got), bits(&weights));
            }
        }
        // Tree estimates: any finite value.
        let tree = random_tree_prufer(n, &mut rng);
        let estimates: Vec<f64> = mixed_values(seed ^ 2, 4 * n)
            .into_iter()
            .filter(|v| v.is_finite())
            .chain(std::iter::repeat(f64::MAX))
            .take(n)
            .collect();
        let single =
            TreeSingleSourceRelease::from_parts(NodeId::new(0), estimates.clone(), 1.5, 2, 3)
                .unwrap();
        let tr = AnyRelease::Tree(TreeAllPairsRelease::from_parts(&tree, single).unwrap());
        let shared = SharedTopology { topology: &tree, checksum: !seed };
        for back in [read_back(&tr, None), read_back(&tr, Some(shared))] {
            let AnyRelease::Tree(r) = back else {
                return Err(TestCaseError::fail("kind changed"));
            };
            prop_assert_eq!(bits(r.single_source().estimates()), bits(&estimates));
        }
    }
}
