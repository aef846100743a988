//! Ordering relations between execution models: blackboard ≤
//! coordinator, symmetrization's 2/k.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use triad::comm::{CostModel, SharedRandomness};
use triad::graph::generators::{far_graph, TripartiteMu};
use triad::graph::partition::{random_disjoint, with_duplication};
use triad::lowerbounds::symmetrization;
use triad::protocols::baseline::SendEverything;
use triad::protocols::{Tuning, UnrestrictedTester};

#[test]
fn blackboard_never_costs_more_than_coordinator() {
    let mut rng = ChaCha8Rng::seed_from_u64(22);
    let g = far_graph(300, 6.0, 0.2, &mut rng).unwrap();
    // Heavy duplication maximizes the blackboard's dedup advantage.
    let parts = with_duplication(&g, 6, 0.6, &mut rng);
    let tuning = Tuning::practical(0.2);
    for seed in 0..3 {
        let coord = UnrestrictedTester::new(tuning)
            .run(&g, &parts, seed)
            .unwrap();
        let board = UnrestrictedTester::new(tuning)
            .with_cost_model(CostModel::Blackboard)
            .run(&g, &parts, seed)
            .unwrap();
        assert!(board.stats.total_bits <= coord.stats.total_bits);
        assert_eq!(
            board.outcome, coord.outcome,
            "cost model changed the verdict"
        );
    }
}

#[test]
fn symmetrization_ratio_and_output() {
    // Lift SendEverything over μ-style symmetric inputs; verify both the
    // referee's output and the 2/k cost ratio.
    let mu = TripartiteMu::new(24, 1.2);
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    let inst = mu.sample(&mut rng);
    let x = [
        inst.alice_edges().to_vec(),
        inst.bob_edges().to_vec(),
        inst.charlie_edges().to_vec(),
    ];
    let n = inst.graph().vertex_count();
    let k = 8;
    let run = symmetrization::symmetrize_once(
        &SendEverything::default(),
        n,
        &x,
        k,
        SharedRandomness::new(1),
        &mut rng,
    );
    // The embedded input contains X1 ∪ X2 ∪ X3 ⊇ the μ graph.
    assert_eq!(
        run.output.is_some(),
        triad::graph::triangles::contains_triangle(inst.graph()),
    );
    assert!(run.one_way_bits <= run.k_player_bits);
    let (ow, kp) = symmetrization::mean_cost_ratio(
        &SendEverything::default(),
        n,
        &x,
        k,
        SharedRandomness::new(1),
        60,
        &mut rng,
    );
    // X1, X2 are drawn as the "interesting" pair: ratio ≈ (|X1|+|X2|) /
    // (|X1|+|X2|+(k−2)|X3|), which for same-sized blocks is 2/k.
    let sizes: Vec<f64> = x.iter().map(|s| s.len() as f64).collect();
    let expected = (sizes[0] + sizes[1]) / (sizes[0] + sizes[1] + (k as f64 - 2.0) * sizes[2]);
    assert!(
        ((ow / kp) - expected).abs() < 0.05,
        "ratio {} vs expected {expected}",
        ow / kp
    );
}

#[test]
fn duplication_costs_more_than_disjoint_for_baseline() {
    // Shipping duplicated shares pays for every copy in the coordinator
    // model — the no-duplication corollaries' k-factor in microcosm.
    let mut rng = ChaCha8Rng::seed_from_u64(24);
    let g = far_graph(300, 6.0, 0.2, &mut rng).unwrap();
    let disjoint = random_disjoint(&g, 4, &mut rng);
    let duplicated = with_duplication(&g, 4, 0.9, &mut rng);
    let a = triad::protocols::baseline::run_send_everything(&g, &disjoint, 0).unwrap();
    let b = triad::protocols::baseline::run_send_everything(&g, &duplicated, 0).unwrap();
    assert!(
        b.stats.total_bits > 2 * a.stats.total_bits,
        "90% duplication should ≈ quadruple the baseline bill ({} vs {})",
        b.stats.total_bits,
        a.stats.total_bits
    );
}
