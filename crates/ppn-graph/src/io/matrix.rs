//! Dense adjacency-matrix format, mirroring the MATLAB inputs of the
//! paper's experimental setup ("Graphs are represented as incidence
//! matrices, and are given as inputs to MATLAB").
//!
//! Layout:
//!
//! ```text
//! # optional comment lines
//! weights: w1 w2 ... wn
//! a11 a12 ... a1n
//! ...
//! an1 an2 ... ann
//! ```
//!
//! `aij` is the bandwidth weight of the edge between nodes `i` and `j`
//! (0 = no edge). The matrix must be symmetric with a zero diagonal.

use crate::error::GraphError;
use crate::graph::{GraphBuilder, WeightedGraph};
use crate::ids::NodeId;
use std::fmt::Write as _;

/// Parse the dense-matrix format.
pub fn parse(text: &str) -> Result<WeightedGraph, GraphError> {
    let mut weights: Option<Vec<u64>> = None;
    let mut rows: Vec<(usize, Vec<u64>)> = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("weights:") {
            if weights.is_some() {
                return Err(GraphError::Parse {
                    line: lineno + 1,
                    msg: "duplicate weights line".into(),
                });
            }
            let w: Result<Vec<u64>, _> = rest.split_whitespace().map(|t| t.parse()).collect();
            weights = Some(w.map_err(|_| GraphError::Parse {
                line: lineno + 1,
                msg: "bad node weight".into(),
            })?);
            continue;
        }
        let row: Result<Vec<u64>, _> = line.split_whitespace().map(|t| t.parse()).collect();
        rows.push((
            lineno + 1,
            row.map_err(|_| GraphError::Parse {
                line: lineno + 1,
                msg: "bad matrix entry".into(),
            })?,
        ));
    }

    let weights = weights.ok_or(GraphError::Parse {
        line: 1,
        msg: "missing `weights:` line".into(),
    })?;
    let n = weights.len();
    if rows.len() != n {
        return Err(GraphError::Parse {
            line: rows.last().map(|r| r.0).unwrap_or(1),
            msg: format!("expected {n} matrix rows, found {}", rows.len()),
        });
    }
    for (lineno, row) in &rows {
        if row.len() != n {
            return Err(GraphError::Parse {
                line: *lineno,
                msg: format!("row has {} entries, expected {n}", row.len()),
            });
        }
    }

    let mut g = GraphBuilder::new();
    for (i, &w) in weights.iter().enumerate() {
        if w == 0 {
            return Err(GraphError::Parse {
                line: 1,
                msg: format!("node {} has zero weight", i + 1),
            });
        }
        g.add_node(w);
    }
    for i in 0..n {
        let (lineno, row) = &rows[i];
        if row[i] != 0 {
            return Err(GraphError::Parse {
                line: *lineno,
                msg: "nonzero diagonal (self loop)".into(),
            });
        }
        for j in (i + 1)..n {
            let w = row[j];
            if rows[j].1[i] != w {
                return Err(GraphError::Parse {
                    line: *lineno,
                    msg: format!("matrix not symmetric at ({}, {})", i + 1, j + 1),
                });
            }
            if w > 0 {
                g.add_edge(NodeId::from_index(i), NodeId::from_index(j), w)
                    .expect("simple by construction");
            }
        }
    }
    Ok(g.build())
}

/// Serialise to the dense-matrix format.
pub fn write(g: &WeightedGraph) -> String {
    let n = g.num_nodes();
    let mut out = String::from("# dense adjacency matrix (ppn-graph)\nweights:");
    for v in g.node_ids() {
        let _ = write!(out, " {}", g.node_weight(v));
    }
    out.push('\n');
    let mut mat = vec![0u64; n * n];
    for (u, v, w) in g.edges() {
        mat[u.index() * n + v.index()] = w;
        mat[v.index() * n + u.index()] = w;
    }
    for i in 0..n {
        let row: Vec<String> = (0..n).map(|j| mat[i * n + j].to_string()).collect();
        out.push_str(&row.join(" "));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut g = GraphBuilder::new();
        let a = g.add_node(3);
        let b = g.add_node(4);
        let c = g.add_node(5);
        g.add_edge(a, b, 2).unwrap();
        g.add_edge(a, c, 9).unwrap();
        let g = g.build();
        let text = write(&g);
        let g2 = parse(&text).unwrap();
        g2.validate().unwrap();
        assert_eq!(g2.num_nodes(), 3);
        assert_eq!(g2.num_edges(), 2);
        assert_eq!(g2.node_weight(NodeId(2)), 5);
        let e = g2.find_edge(NodeId(0), NodeId(2)).unwrap();
        assert_eq!(g2.edge_weight(e), 9);
    }

    #[test]
    fn parses_handwritten_matrix() {
        let text = "# demo\nweights: 1 2\n0 7\n7 0\n";
        let g = parse(text).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.total_edge_weight(), 7);
    }

    #[test]
    fn rejects_asymmetric() {
        let text = "weights: 1 2\n0 7\n6 0\n";
        assert!(parse(text).unwrap_err().to_string().contains("symmetric"));
    }

    #[test]
    fn rejects_nonzero_diagonal() {
        let text = "weights: 1 2\n1 7\n7 0\n";
        assert!(parse(text).unwrap_err().to_string().contains("diagonal"));
    }

    #[test]
    fn rejects_bad_row_counts() {
        let text = "weights: 1 2 3\n0 1 0\n1 0 0\n";
        assert!(parse(text).is_err());
        let text = "weights: 1 2\n0 1 9\n1 0\n";
        assert!(parse(text).is_err());
    }

    #[test]
    fn rejects_missing_weights() {
        let text = "0 1\n1 0\n";
        assert!(parse(text).unwrap_err().to_string().contains("weights"));
    }

    #[test]
    fn rejects_zero_node_weight() {
        let text = "weights: 0 2\n0 1\n1 0\n";
        assert!(parse(text).is_err());
    }
}
