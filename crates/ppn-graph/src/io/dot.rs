//! Graphviz DOT export — regenerates the paper's figures.
//!
//! Figures 2/6/10 draw the unpartitioned graphs with node radius
//! proportional to weight; figures 3/7/11 add weight/bandwidth labels;
//! figures 4/8/12 and 5/9/13 colour nodes by the GP and METIS partitions.

use crate::graph::WeightedGraph;
use crate::partition::Partition;
use std::fmt::Write as _;

/// Rendering options for [`to_dot`].
#[derive(Clone, Debug)]
pub struct DotOptions {
    /// Graph name in the `graph <name> { ... }` header.
    pub name: String,
    /// Scale node circles with their resource weight (radius ∝ weight),
    /// as in the paper's unpartitioned-figure renderings.
    pub size_by_weight: bool,
    /// Print node weights (`label="id\n(w)"`) and edge weights.
    pub show_weights: bool,
    /// Colour nodes by partition.
    pub partition: Option<Partition>,
}

impl Default for DotOptions {
    fn default() -> Self {
        DotOptions {
            name: "ppn".to_string(),
            size_by_weight: true,
            show_weights: true,
            partition: None,
        }
    }
}

/// Colour palette for partitions (cycled when k exceeds its length).
const PALETTE: [&str; 8] = [
    "#e6550d", "#3182bd", "#31a354", "#756bb1", "#636363", "#fdae6b", "#9ecae1", "#a1d99b",
];

/// Render `g` as a Graphviz `graph` (undirected).
pub fn to_dot(g: &WeightedGraph, opts: &DotOptions) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "graph {} {{", sanitize(&opts.name));
    let _ = writeln!(out, "  layout=neato; overlap=false; splines=true;");
    let max_w = g.max_node_weight().max(1) as f64;
    for v in g.node_ids() {
        let mut attrs: Vec<String> = Vec::new();
        let label = match (g.label(v), opts.show_weights) {
            (Some(l), true) => format!("{l}\\n({})", g.node_weight(v)),
            (Some(l), false) => l.to_string(),
            (None, true) => format!("{}\\n({})", v.0, g.node_weight(v)),
            (None, false) => format!("{}", v.0),
        };
        attrs.push(format!("label=\"{label}\""));
        if opts.size_by_weight {
            let r = 0.3 + 0.7 * (g.node_weight(v) as f64 / max_w);
            attrs.push(format!("width={r:.2}"));
            attrs.push(format!("height={r:.2}"));
            attrs.push("fixedsize=true".to_string());
            attrs.push("shape=circle".to_string());
        }
        if let Some(p) = &opts.partition {
            let part = p.part_of(v);
            if part != Partition::UNASSIGNED {
                let color = PALETTE[part as usize % PALETTE.len()];
                attrs.push(format!("style=filled fillcolor=\"{color}\""));
            }
        }
        let _ = writeln!(out, "  {} [{}];", v.0, attrs.join(" "));
    }
    for (u, v, w) in g.edges() {
        let mut attrs: Vec<String> = Vec::new();
        if opts.show_weights {
            attrs.push(format!("label=\"{w}\""));
        }
        if let Some(p) = &opts.partition {
            let (a, b) = (p.part_of(u), p.part_of(v));
            if a != b && a != Partition::UNASSIGNED && b != Partition::UNASSIGNED {
                attrs.push("style=dashed color=red".to_string());
            }
        }
        if attrs.is_empty() {
            let _ = writeln!(out, "  {} -- {};", u.0, v.0);
        } else {
            let _ = writeln!(out, "  {} -- {} [{}];", u.0, v.0, attrs.join(" "));
        }
    }
    out.push_str("}\n");
    out
}

fn sanitize(name: &str) -> String {
    let cleaned: String = name
        .chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if cleaned.is_empty() {
        "g".to_string()
    } else {
        cleaned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::ids::NodeId;

    fn sample() -> WeightedGraph {
        let mut g = GraphBuilder::new();
        let a = g.add_labeled_node(10, "src");
        let b = g.add_node(40);
        g.add_edge(a, b, 3).unwrap();
        g.build()
    }

    #[test]
    fn dot_contains_nodes_and_edges() {
        let g = sample();
        let dot = to_dot(&g, &DotOptions::default());
        assert!(dot.starts_with("graph ppn {"));
        assert!(dot.contains("src\\n(10)"));
        assert!(dot.contains("0 -- 1"));
        assert!(dot.contains("label=\"3\""));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn node_size_scales_with_weight() {
        let g = sample();
        let dot = to_dot(&g, &DotOptions::default());
        // heaviest node gets width 1.00, lighter one is smaller
        assert!(dot.contains("width=1.00"));
        assert!(dot.contains("width=0.47") || dot.contains("width=0.48"));
    }

    #[test]
    fn partition_colours_and_cut_edges() {
        let g = sample();
        let p = Partition::from_assignment(vec![0, 1], 2).unwrap();
        let dot = to_dot(
            &g,
            &DotOptions {
                partition: Some(p),
                ..DotOptions::default()
            },
        );
        assert!(dot.contains("fillcolor"));
        assert!(dot.contains("style=dashed color=red"));
    }

    #[test]
    fn unassigned_nodes_not_coloured() {
        let g = sample();
        let mut p = Partition::unassigned(2, 2);
        p.assign(NodeId(0), 0);
        let dot = to_dot(
            &g,
            &DotOptions {
                partition: Some(p),
                ..DotOptions::default()
            },
        );
        assert_eq!(dot.matches("fillcolor").count(), 1);
    }

    #[test]
    fn name_is_sanitised() {
        let g = sample();
        let dot = to_dot(
            &g,
            &DotOptions {
                name: "fig 4: GP!".into(),
                ..DotOptions::default()
            },
        );
        assert!(dot.starts_with("graph fig_4__GP_ {"));
    }
}
