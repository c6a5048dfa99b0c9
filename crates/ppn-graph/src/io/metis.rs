//! METIS `.graph` format reader/writer.
//!
//! Format recap (METIS 5.x manual §4.1.1): first non-comment line is
//! `n m [fmt [ncon]]`; `fmt` is a 3-digit code `abc` where `a` = has
//! vertex sizes (unsupported here), `b` = has vertex weights, `c` = has
//! edge weights. Each following line lists, for node `i` (1-based), its
//! optional weights then pairs `neighbour [weight]`. Comment lines start
//! with `%`. We always *write* fmt `011` (vertex + edge weights) since the
//! partitioning problem is weighted on both.

use crate::error::GraphError;
use crate::graph::{GraphBuilder, WeightedGraph};
use crate::ids::NodeId;
use std::fmt::Write as _;

/// Parse a METIS-format graph from text.
pub fn parse(text: &str) -> Result<WeightedGraph, GraphError> {
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.starts_with('%') && !l.is_empty());

    let (hline, header) = lines.next().ok_or(GraphError::Parse {
        line: 1,
        msg: "empty file".into(),
    })?;
    let head: Vec<&str> = header.split_whitespace().collect();
    if head.len() < 2 {
        return Err(GraphError::Parse {
            line: hline,
            msg: "header needs at least `n m`".into(),
        });
    }
    let n: usize = head[0].parse().map_err(|_| GraphError::Parse {
        line: hline,
        msg: "bad node count".into(),
    })?;
    let m: usize = head[1].parse().map_err(|_| GraphError::Parse {
        line: hline,
        msg: "bad edge count".into(),
    })?;
    let fmt = if head.len() >= 3 { head[2] } else { "000" };
    let has_vsize = fmt.len() == 3 && fmt.as_bytes()[0] == b'1';
    let has_vwgt = fmt.len() >= 2 && fmt.as_bytes()[fmt.len() - 2] == b'1';
    let has_ewgt = !fmt.is_empty() && fmt.as_bytes()[fmt.len() - 1] == b'1';
    if has_vsize {
        return Err(GraphError::Parse {
            line: hline,
            msg: "vertex sizes (fmt=1xx) not supported".into(),
        });
    }
    let ncon: usize = if head.len() >= 4 {
        head[3].parse().map_err(|_| GraphError::Parse {
            line: hline,
            msg: "bad ncon".into(),
        })?
    } else {
        1
    };
    if ncon != 1 {
        return Err(GraphError::Parse {
            line: hline,
            msg: "multiple vertex weights (ncon > 1) not supported".into(),
        });
    }
    // Allocation-bomb guard: a header cannot claim more nodes or edges
    // than the payload has bytes to describe them. Every node costs at
    // least its line's newline; every undirected edge is listed twice,
    // each listing at least one digit plus a separator (4 bytes total).
    // Checked before any count-proportional work so a hostile header
    // like `999999999999 999999999999` fails in O(1).
    let payload = text.len();
    if n > payload || m > payload / 4 {
        return Err(GraphError::Parse {
            line: hline,
            msg: format!(
                "header claims {n} nodes and {m} edges but the payload is only {payload} bytes"
            ),
        });
    }

    let mut g = GraphBuilder::new();
    struct Pending {
        line: usize,
        u: usize,
        v: usize,
        w: u64,
    }
    let mut pend: Vec<Pending> = Vec::new();

    let mut count = 0usize;
    for (lineno, line) in lines {
        if count >= n {
            return Err(GraphError::Parse {
                line: lineno,
                msg: format!("more than {n} node lines"),
            });
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        let mut idx = 0;
        let vw: u64 = if has_vwgt {
            let w = toks
                .first()
                .ok_or(GraphError::Parse {
                    line: lineno,
                    msg: "missing vertex weight".into(),
                })?
                .parse()
                .map_err(|_| GraphError::Parse {
                    line: lineno,
                    msg: "bad vertex weight".into(),
                })?;
            idx = 1;
            w
        } else {
            1
        };
        if vw == 0 {
            return Err(GraphError::Parse {
                line: lineno,
                msg: "vertex weight must be positive".into(),
            });
        }
        g.add_node(vw);
        let u = count;
        count += 1;

        while idx < toks.len() {
            let nbr: usize = toks[idx].parse().map_err(|_| GraphError::Parse {
                line: lineno,
                msg: format!("bad neighbour `{}`", toks[idx]),
            })?;
            if nbr == 0 || nbr > n {
                return Err(GraphError::Parse {
                    line: lineno,
                    msg: format!("neighbour {nbr} out of range 1..={n}"),
                });
            }
            idx += 1;
            let w: u64 = if has_ewgt {
                let w = toks
                    .get(idx)
                    .ok_or(GraphError::Parse {
                        line: lineno,
                        msg: "missing edge weight".into(),
                    })?
                    .parse()
                    .map_err(|_| GraphError::Parse {
                        line: lineno,
                        msg: "bad edge weight".into(),
                    })?;
                idx += 1;
                w
            } else {
                1
            };
            pend.push(Pending {
                line: lineno,
                u,
                v: nbr - 1,
                w,
            });
        }
    }
    if count != n {
        return Err(GraphError::Parse {
            line: 0,
            msg: format!("expected {n} node lines, found {count}"),
        });
    }

    // Each undirected edge is listed twice; insert when u < v and verify
    // the mirror entry agrees.
    let mut mirror = std::collections::HashMap::new();
    for p in &pend {
        mirror.insert((p.u, p.v), p.w);
    }
    let mut added = 0usize;
    for p in &pend {
        if p.u < p.v {
            match mirror.get(&(p.v, p.u)) {
                Some(&w) if w == p.w => {}
                Some(_) => {
                    return Err(GraphError::Parse {
                        line: p.line,
                        msg: format!("asymmetric weight on edge {}-{}", p.u + 1, p.v + 1),
                    })
                }
                None => {
                    return Err(GraphError::Parse {
                        line: p.line,
                        msg: format!("edge {}-{} missing its mirror entry", p.u + 1, p.v + 1),
                    })
                }
            }
            g.add_edge(NodeId::from_index(p.u), NodeId::from_index(p.v), p.w)
                .map_err(|e| GraphError::Parse {
                    line: p.line,
                    msg: e.to_string(),
                })?;
            added += 1;
        }
    }
    if added != m {
        return Err(GraphError::Parse {
            line: 0,
            msg: format!("header declared {m} edges, found {added}"),
        });
    }
    Ok(g.build())
}

/// Serialise a graph in METIS format with fmt `011` (vertex and edge
/// weights).
pub fn write(g: &WeightedGraph) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "% written by ppn-graph\n{} {} 011",
        g.num_nodes(),
        g.num_edges()
    );
    for v in g.node_ids() {
        let _ = write!(out, "{}", g.node_weight(v));
        let mut nbrs: Vec<(NodeId, u64)> = g
            .neighbors(v)
            .iter()
            .map(|&(u, e)| (u, g.edge_weight(e)))
            .collect();
        nbrs.sort_by_key(|&(u, _)| u);
        for (u, w) in nbrs {
            let _ = write!(out, " {} {}", u.0 + 1, w);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WeightedGraph {
        let mut g = GraphBuilder::new();
        let a = g.add_node(10);
        let b = g.add_node(20);
        let c = g.add_node(30);
        g.add_edge(a, b, 5).unwrap();
        g.add_edge(b, c, 7).unwrap();
        g.build()
    }

    #[test]
    fn roundtrip() {
        let g = sample();
        let text = write(&g);
        let g2 = parse(&text).unwrap();
        g2.validate().unwrap();
        assert_eq!(g2.num_nodes(), 3);
        assert_eq!(g2.num_edges(), 2);
        assert_eq!(g2.node_weight(NodeId(1)), 20);
        let e = g2.find_edge(NodeId(1), NodeId(2)).unwrap();
        assert_eq!(g2.edge_weight(e), 7);
    }

    #[test]
    fn parses_unweighted_format() {
        let text = "3 2\n2\n1 3\n2\n";
        let g = parse(text).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.node_weight(NodeId(0)), 1);
    }

    #[test]
    fn parses_comments_and_blank_lines() {
        let text = "% a comment\n\n3 1 011\n% another\n4 2 9\n5 1 9\n6\n";
        let g = parse(text).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.node_weight(NodeId(2)), 6);
    }

    #[test]
    fn rejects_asymmetric_edges() {
        let text = "2 1 001\n2 5\n1 6\n";
        let err = parse(text).unwrap_err();
        assert!(err.to_string().contains("asymmetric"));
    }

    #[test]
    fn rejects_missing_mirror() {
        let text = "3 1 000\n2\n\n\n";
        assert!(parse(text).is_err());
    }

    #[test]
    fn rejects_out_of_range_neighbour() {
        let text = "2 1 000\n5\n1\n";
        let err = parse(text).unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn rejects_wrong_edge_count() {
        let text = "2 2 000\n2\n1\n";
        let err = parse(text).unwrap_err();
        assert!(err.to_string().contains("declared 2 edges"));
    }

    #[test]
    fn rejects_empty_input() {
        assert!(parse("").is_err());
        assert!(parse("% only comments\n").is_err());
    }
}
