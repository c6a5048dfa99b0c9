//! Property tests for the classical partitioners.

use gp_classic::bisect::{bisect, recursive_bisection, BisectOptions};
use gp_classic::fm::{fm_refine_bisection, FmOptions};
use gp_classic::matching::heavy_edge_matching;
use gp_classic::subgraph::induced_subgraph;
use ppn_graph::metrics::edge_cut;
use ppn_graph::{GraphBuilder, NodeId, Partition, WeightedGraph};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = WeightedGraph> {
    (4usize..24, any::<u64>(), 1u64..20, 1u64..15).prop_map(|(n, mask, wmax, emax)| {
        let mut g = GraphBuilder::new();
        let ids: Vec<_> = (0..n)
            .map(|i| g.add_node(1 + (mask.rotate_left(i as u32) % wmax)))
            .collect();
        for i in 1..n {
            g.add_edge(ids[i - 1], ids[i], 1 + (mask.rotate_right(i as u32) % emax))
                .unwrap();
        }
        let mut bit = 0u32;
        for i in 0..n {
            for j in (i + 2)..n {
                bit = bit.wrapping_add(3);
                if (mask.rotate_left(bit) & 3) == 0 {
                    let _ = g.add_edge(ids[i], ids[j], 1 + (mask.rotate_right(bit) % emax));
                }
            }
        }
        g.build()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fm_improves_cut_or_repairs_balance(g in arb_graph(), seed in any::<u64>()) {
        let n = g.num_nodes();
        let assign: Vec<u32> = (0..n).map(|i| ((seed >> (i % 60)) & 1) as u32).collect();
        let mut p = Partition::from_assignment(assign, 2).unwrap();
        // ensure both sides non-empty
        p.assign(NodeId(0), 0);
        p.assign(NodeId(1), 1);
        let opts = FmOptions::balanced(&g, 1.2);
        let caps = opts.max_side_weight;
        let viol = |p: &Partition| {
            let w = p.part_weights(&g);
            w[0].saturating_sub(caps[0]) + w[1].saturating_sub(caps[1])
        };
        let before_cut = edge_cut(&g, &p);
        let before_viol = viol(&p);
        let out = fm_refine_bisection(&g, &mut p, &opts);
        prop_assert_eq!(out.final_cut, edge_cut(&g, &p));
        prop_assert!(p.is_complete());
        if before_viol == 0 {
            // feasible start: the cut never worsens
            prop_assert!(out.final_cut <= before_cut);
            prop_assert_eq!(viol(&p), 0, "feasible start must stay feasible");
        } else {
            // infeasible start: FM may raise the cut to repair balance,
            // but the violation must not grow
            prop_assert!(viol(&p) <= before_viol);
        }
    }

    #[test]
    fn hem_is_maximal_and_valid(g in arb_graph(), seed in any::<u64>()) {
        let m = heavy_edge_matching(&g, seed);
        prop_assert!(m.validate(&g));
        prop_assert!(m.is_maximal(&g));
    }

    #[test]
    fn recursive_bisection_covers_all_parts(g in arb_graph(), k in 2usize..6, seed in any::<u64>()) {
        let p = recursive_bisection(&g, k, 1.2, seed);
        prop_assert!(p.is_complete());
        prop_assert_eq!(p.k(), k);
        if g.num_nodes() >= 2 * k {
            let sizes = p.part_sizes();
            prop_assert!(sizes.iter().all(|&s| s > 0), "empty part: {:?}", sizes);
        }
        // projection sanity: weights sum preserved
        prop_assert_eq!(
            p.part_weights(&g).iter().sum::<u64>(),
            g.total_node_weight()
        );
    }

    #[test]
    fn bisect_never_empties_a_side(g in arb_graph(), seed in any::<u64>()) {
        let b = bisect(&g, &BisectOptions { seed, ..Default::default() });
        prop_assert!(b.partition.is_complete());
        let sizes = b.partition.part_sizes();
        prop_assert!(sizes[0] > 0 && sizes[1] > 0);
        prop_assert_eq!(b.cut, edge_cut(&g, &b.partition));
    }

    #[test]
    fn induced_subgraph_preserves_internal_structure(g in arb_graph(), mask in any::<u64>()) {
        let nodes: Vec<NodeId> = g
            .node_ids()
            .filter(|v| (mask >> (v.index() % 60)) & 1 == 1)
            .collect();
        let (sub, back) = induced_subgraph(&g, &nodes);
        prop_assert_eq!(sub.num_nodes(), nodes.len());
        for (i, &orig) in back.iter().enumerate() {
            prop_assert_eq!(sub.node_weight(NodeId::from_index(i)), g.node_weight(orig));
        }
        // every subgraph edge exists in the parent with equal weight
        for (u, v, w) in sub.edges() {
            let e = g.find_edge(back[u.index()], back[v.index()]);
            prop_assert!(e.is_some());
            prop_assert_eq!(g.edge_weight(e.unwrap()), w);
        }
    }
}
