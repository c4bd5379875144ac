//! SPEF-lite: a minimal, line-oriented parasitics exchange format.
//!
//! Real designs ship IEEE 1481 SPEF from the router; the paper gets its
//! parasitics from IC Compiler. This workspace generates its own RC trees,
//! so a compact format with the same information content (net name, tree
//! topology, per-segment R, per-node C, sink markers) is used instead:
//!
//! ```text
//! *SPEF-LITE 1
//! *NET n42
//! *N 0 -1 0 1.5e-16      // node 0: root, no parent, res 0, cap 0.15 fF
//! *N 1 0 120.0 2.0e-16   // node 1 hangs off node 0 through 120 Ω
//! *S 1                   // node 1 is a sink
//! *END
//! ```

use crate::rctree::{node_id, RcTree};
use std::fmt::Write as _;

/// A named parasitic net.
#[derive(Debug, Clone, PartialEq)]
pub struct SpefNet {
    /// Net name.
    pub name: String,
    /// The RC tree.
    pub tree: RcTree,
}

/// Error parsing SPEF-lite text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseSpefError {
    /// Missing `*SPEF-LITE` header.
    MissingHeader,
    /// A record was malformed; carries the 1-based line number.
    BadRecord(usize),
    /// Node ids must be dense and in order (parent before child).
    BadTopology(usize),
    /// A `*NET` name was defined twice in the same file.
    DuplicateNet(usize, String),
    /// A `*N` record redefined an already-declared node id.
    DuplicateNode(usize),
    /// A `*N` parent or `*S` sink referenced a node not yet declared.
    UndeclaredNode(usize),
    /// A resistance or capacitance was negative or not finite, or a
    /// non-root segment resistance was zero.
    BadValue(usize),
    /// The file ended before `*END`.
    UnexpectedEof,
}

impl std::fmt::Display for ParseSpefError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseSpefError::MissingHeader => write!(f, "missing *SPEF-LITE header"),
            ParseSpefError::BadRecord(l) => write!(f, "malformed record at line {l}"),
            ParseSpefError::BadTopology(l) => write!(f, "invalid tree topology at line {l}"),
            ParseSpefError::DuplicateNet(l, n) => {
                write!(f, "duplicate *NET '{n}' at line {l}")
            }
            ParseSpefError::DuplicateNode(l) => {
                write!(f, "duplicate node definition at line {l}")
            }
            ParseSpefError::UndeclaredNode(l) => {
                write!(f, "reference to undeclared node at line {l}")
            }
            ParseSpefError::BadValue(l) => {
                write!(
                    f,
                    "negative, non-finite or zero-segment R/C value at line {l}"
                )
            }
            ParseSpefError::UnexpectedEof => write!(f, "unexpected end of file before *END"),
        }
    }
}

impl ParseSpefError {
    /// The 1-based source line the error points at, when known.
    pub fn line(&self) -> Option<usize> {
        match self {
            ParseSpefError::BadRecord(l)
            | ParseSpefError::BadTopology(l)
            | ParseSpefError::DuplicateNet(l, _)
            | ParseSpefError::DuplicateNode(l)
            | ParseSpefError::UndeclaredNode(l)
            | ParseSpefError::BadValue(l) => Some(*l),
            ParseSpefError::MissingHeader | ParseSpefError::UnexpectedEof => None,
        }
    }
}

impl std::error::Error for ParseSpefError {}

/// Serializes nets to SPEF-lite text.
///
/// # Examples
///
/// ```
/// use nsigma_interconnect::rctree::RcTree;
/// use nsigma_interconnect::spef::{parse, write, SpefNet};
///
/// let mut t = RcTree::new(1e-16);
/// let s = t.add_node(RcTree::root(), 100.0, 2e-16);
/// t.mark_sink(s);
/// let text = write(&[SpefNet { name: "n1".into(), tree: t.clone() }]);
/// let nets = parse(&text)?;
/// assert_eq!(nets[0].tree, t);
/// # Ok::<(), nsigma_interconnect::spef::ParseSpefError>(())
/// ```
pub fn write(nets: &[SpefNet]) -> String {
    let mut out = String::from("*SPEF-LITE 1\n");
    for net in nets {
        writeln!(out, "*NET {}", net.name).expect("string write");
        let tree = &net.tree;
        for (i, ((&parent, res), cap)) in tree
            .parents()
            .iter()
            .zip(tree.res())
            .zip(tree.caps())
            .enumerate()
        {
            let parent = if i == 0 { -1 } else { i64::from(parent) };
            writeln!(out, "*N {i} {parent} {res:e} {cap:e}").expect("string write");
        }
        for s in net.tree.sinks() {
            writeln!(out, "*S {}", s.index()).expect("string write");
        }
        out.push_str("*END\n");
    }
    out
}

/// Parses SPEF-lite text into nets.
///
/// # Errors
///
/// Returns a [`ParseSpefError`] describing the first malformed line.
pub fn parse(text: &str) -> Result<Vec<SpefNet>, ParseSpefError> {
    let mut lines = text.lines().enumerate().peekable();
    match lines.next() {
        Some((_, l)) if l.trim_start().starts_with("*SPEF-LITE") => {}
        _ => return Err(ParseSpefError::MissingHeader),
    }

    let mut nets = Vec::new();
    let mut seen_names = std::collections::HashSet::new();
    while let Some((lineno, line)) = lines.next() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let name = line
            .strip_prefix("*NET ")
            .ok_or(ParseSpefError::BadRecord(lineno + 1))?
            .trim()
            .to_string();
        if !seen_names.insert(name.clone()) {
            return Err(ParseSpefError::DuplicateNet(lineno + 1, name));
        }

        let mut tree: Option<RcTree> = None;
        let mut node_count = 0usize;
        let mut ended = false;
        for (lineno, line) in lines.by_ref() {
            let line = line.trim();
            if line == "*END" {
                ended = true;
                break;
            }
            if let Some(rest) = line.strip_prefix("*N ") {
                let mut it = rest.split_whitespace();
                let (id, parent, res, cap) = (
                    next_num::<usize>(&mut it, lineno)?,
                    next_num::<i64>(&mut it, lineno)?,
                    next_num::<f64>(&mut it, lineno)?,
                    next_num::<f64>(&mut it, lineno)?,
                );
                if id < node_count {
                    return Err(ParseSpefError::DuplicateNode(lineno + 1));
                }
                if id > node_count {
                    return Err(ParseSpefError::BadTopology(lineno + 1));
                }
                // A non-root segment needs R > 0: the transient divides by it.
                let res_ok = if id == 0 { res >= 0.0 } else { res > 0.0 };
                if !res.is_finite() || !cap.is_finite() || !res_ok || cap < 0.0 {
                    return Err(ParseSpefError::BadValue(lineno + 1));
                }
                if id == 0 {
                    if parent != -1 {
                        return Err(ParseSpefError::BadTopology(lineno + 1));
                    }
                    tree = Some(RcTree::new(cap));
                } else {
                    let t = tree
                        .as_mut()
                        .ok_or(ParseSpefError::BadTopology(lineno + 1))?;
                    if parent < 0 {
                        return Err(ParseSpefError::BadTopology(lineno + 1));
                    }
                    if parent as usize >= id {
                        return Err(ParseSpefError::UndeclaredNode(lineno + 1));
                    }
                    t.add_node(node_id(parent as usize), res, cap);
                }
                node_count += 1;
            } else if let Some(rest) = line.strip_prefix("*S ") {
                let idx: usize = rest
                    .trim()
                    .parse()
                    .map_err(|_| ParseSpefError::BadRecord(lineno + 1))?;
                let t = tree
                    .as_mut()
                    .ok_or(ParseSpefError::BadTopology(lineno + 1))?;
                if idx >= t.len() {
                    return Err(ParseSpefError::UndeclaredNode(lineno + 1));
                }
                t.mark_sink(node_id(idx));
            } else if !line.is_empty() {
                return Err(ParseSpefError::BadRecord(lineno + 1));
            }
        }
        if !ended {
            return Err(ParseSpefError::UnexpectedEof);
        }
        let tree = tree.ok_or(ParseSpefError::UnexpectedEof)?;
        nets.push(SpefNet { name, tree });
    }
    Ok(nets)
}

fn next_num<T: std::str::FromStr>(
    it: &mut std::str::SplitWhitespace<'_>,
    lineno: usize,
) -> Result<T, ParseSpefError> {
    it.next()
        .and_then(|s| s.parse().ok())
        .ok_or(ParseSpefError::BadRecord(lineno + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tree() -> RcTree {
        let mut t = RcTree::new(1e-16);
        let a = t.add_node(RcTree::root(), 120.0, 2e-16);
        let b = t.add_node(a, 80.0, 3e-16);
        let c = t.add_node(a, 200.0, 1e-16);
        t.mark_sink(b);
        t.mark_sink(c);
        t
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let nets = vec![
            SpefNet {
                name: "alpha".into(),
                tree: sample_tree(),
            },
            SpefNet {
                name: "beta".into(),
                tree: RcTree::new(5e-16),
            },
        ];
        let text = write(&nets);
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed, nets);
    }

    #[test]
    fn rejects_missing_header() {
        assert_eq!(parse("*NET x\n*END\n"), Err(ParseSpefError::MissingHeader));
    }

    #[test]
    fn rejects_orphan_topology() {
        let text = "*SPEF-LITE 1\n*NET x\n*N 0 -1 0 1e-16\n*N 1 5 10 1e-16\n*END\n";
        assert_eq!(parse(text), Err(ParseSpefError::UndeclaredNode(4)));
    }

    #[test]
    fn rejects_duplicate_node_definition() {
        let text =
            "*SPEF-LITE 1\n*NET x\n*N 0 -1 0 1e-16\n*N 1 0 10 1e-16\n*N 1 0 20 1e-16\n*END\n";
        assert_eq!(parse(text), Err(ParseSpefError::DuplicateNode(5)));
    }

    #[test]
    fn rejects_duplicate_net_name() {
        let text = "*SPEF-LITE 1\n*NET x\n*N 0 -1 0 1e-16\n*END\n*NET x\n*N 0 -1 0 1e-16\n*END\n";
        assert_eq!(
            parse(text),
            Err(ParseSpefError::DuplicateNet(5, "x".into()))
        );
    }

    #[test]
    fn rejects_sink_on_undeclared_node() {
        let text = "*SPEF-LITE 1\n*NET x\n*N 0 -1 0 1e-16\n*S 3\n*END\n";
        assert_eq!(parse(text), Err(ParseSpefError::UndeclaredNode(4)));
    }

    #[test]
    fn rejects_negative_and_non_finite_values() {
        let neg = "*SPEF-LITE 1\n*NET x\n*N 0 -1 0 1e-16\n*N 1 0 -5 1e-16\n*END\n";
        assert_eq!(parse(neg), Err(ParseSpefError::BadValue(4)));
        let nan = "*SPEF-LITE 1\n*NET x\n*N 0 -1 0 NaN\n*END\n";
        assert_eq!(parse(nan), Err(ParseSpefError::BadValue(3)));
        let inf = "*SPEF-LITE 1\n*NET x\n*N 0 -1 0 1e-16\n*N 1 0 inf 1e-16\n*END\n";
        assert_eq!(parse(inf), Err(ParseSpefError::BadValue(4)));
    }

    #[test]
    fn rejects_zero_resistance_segment() {
        let zero = "*SPEF-LITE 1\n*NET x\n*N 0 -1 0 1e-16\n*N 1 0 0 1e-16\n*S 1\n*END\n";
        assert_eq!(parse(zero), Err(ParseSpefError::BadValue(4)));
    }

    #[test]
    fn rejects_truncated_file() {
        let text = "*SPEF-LITE 1\n*NET x\n*N 0 -1 0 1e-16\n";
        assert_eq!(parse(text), Err(ParseSpefError::UnexpectedEof));
    }

    #[test]
    fn rejects_garbage_record() {
        let text = "*SPEF-LITE 1\n*NET x\n*N 0 -1 0 1e-16\nwhat\n*END\n";
        assert!(matches!(parse(text), Err(ParseSpefError::BadRecord(_))));
    }
}
