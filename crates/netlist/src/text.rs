//! A plain-text netlist interchange format.
//!
//! ```text
//! scal-netlist v1
//! input n0 a
//! input n1 b
//! gate n2 nand n0 n1
//! dff n3 0
//! connect n3 n2
//! name n2 stage1
//! output f n2
//! ```
//!
//! Lines: `input <id> <name>`, `const <id> <0|1>`, `gate <id> <kind>
//! <fanin>...`, `dff <id> <init>`, `connect <dff-id> <d-id>` (after all
//! nodes), `name <id> <name>`, `output <name> <id>`, `#` comments. Node ids
//! must appear in creation order (`n0`, `n1`, …), which the emitter
//! guarantees and the parser enforces.

use crate::circuit::NodeView;
use crate::{Circuit, GateKind, NodeId};
use std::fmt::Write as _;

/// Errors from parsing the v1 text format.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TextError {
    /// Missing or wrong header line.
    BadHeader,
    /// A line could not be parsed.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// The offending text.
        text: String,
    },
    /// A node id was out of order or referenced before creation.
    BadNodeRef {
        /// 1-based line number.
        line: usize,
    },
    /// A `connect` line targeted a node that is not a flip-flop.
    NotAFlipFlop {
        /// 1-based line number.
        line: usize,
    },
    /// A `connect` line targeted a flip-flop whose D input was already
    /// wired by an earlier `connect`.
    AlreadyConnected {
        /// 1-based line number.
        line: usize,
    },
}

impl core::fmt::Display for TextError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TextError::BadHeader => write!(f, "missing 'scal-netlist v1' header"),
            TextError::BadLine { line, text } => write!(f, "cannot parse line {line}: {text:?}"),
            TextError::BadNodeRef { line } => write!(f, "bad node reference on line {line}"),
            TextError::NotAFlipFlop { line } => {
                write!(f, "connect target on line {line} is not a flip-flop")
            }
            TextError::AlreadyConnected { line } => {
                write!(f, "flip-flop on line {line} is already connected")
            }
        }
    }
}

impl std::error::Error for TextError {}

fn kind_name(kind: GateKind) -> &'static str {
    kind.mnemonic()
}

fn kind_from_name(s: &str) -> Option<GateKind> {
    Some(match s {
        "buf" => GateKind::Buf,
        "not" => GateKind::Not,
        "and" => GateKind::And,
        "or" => GateKind::Or,
        "nand" => GateKind::Nand,
        "nor" => GateKind::Nor,
        "xor" => GateKind::Xor,
        "xnor" => GateKind::Xnor,
        "min" => GateKind::Minority,
        "maj" => GateKind::Majority,
        _ => return None,
    })
}

/// Serializes the netlist to the v1 text format (the implementation behind
/// [`crate::NetlistFormat::ScalText`]).
pub(crate) fn emit(c: &Circuit) -> String {
    let mut s = String::from("scal-netlist v1\n");
    let mut connects = Vec::new();
    let mut names = Vec::new();
    for id in c.node_ids() {
        match c.view(id) {
            NodeView::Input => {
                let _ = writeln!(s, "input {id} {}", c.name(id).unwrap_or("_"));
            }
            NodeView::Const(v) => {
                let _ = writeln!(s, "const {id} {}", u8::from(v));
                if let Some(n) = c.name(id) {
                    names.push((id, n.to_owned()));
                }
            }
            NodeView::Gate(kind) => {
                let _ = write!(s, "gate {id} {}", kind_name(kind));
                for f in c.fanins(id) {
                    let _ = write!(s, " {f}");
                }
                s.push('\n');
                if let Some(n) = c.name(id) {
                    names.push((id, n.to_owned()));
                }
            }
            NodeView::Dff { init } => {
                let _ = writeln!(s, "dff {id} {}", u8::from(init));
                if let Some(&d) = c.fanins(id).first() {
                    connects.push((id, d));
                }
                if let Some(n) = c.name(id) {
                    names.push((id, n.to_owned()));
                }
            }
        }
    }
    for (ff, d) in connects {
        let _ = writeln!(s, "connect {ff} {d}");
    }
    for (id, n) in names {
        let _ = writeln!(s, "name {id} {n}");
    }
    for o in c.outputs() {
        let _ = writeln!(s, "output {} {}", o.name, o.node);
    }
    s
}

/// Parses the v1 text format (the implementation behind
/// [`crate::NetlistFormat::ScalText`]).
pub(crate) fn parse(text: &str) -> Result<Circuit, TextError> {
    let mut lines = text.lines().enumerate();
    let header = loop {
        match lines.next() {
            Some((_, l)) if l.trim().is_empty() || l.trim_start().starts_with('#') => {}
            Some((_, l)) => break l.trim(),
            None => return Err(TextError::BadHeader),
        }
    };
    if header != "scal-netlist v1" {
        return Err(TextError::BadHeader);
    }

    let mut c = Circuit::new();
    let parse_id = |tok: &str, line: usize, max: usize| -> Result<NodeId, TextError> {
        let idx = parse_index(tok).ok_or(TextError::BadNodeRef { line })?;
        if idx >= max {
            return Err(TextError::BadNodeRef { line });
        }
        Ok(crate::circuit::node_id_from_index(idx))
    };

    for (ln0, raw) in lines {
        let line = ln0 + 1;
        let l = raw.trim();
        if l.is_empty() || l.starts_with('#') {
            continue;
        }
        let toks: Vec<&str> = l.split_whitespace().collect();
        let bad = || TextError::BadLine {
            line,
            text: raw.to_owned(),
        };
        // Names occupy the rest of the line (they may contain spaces); the
        // line is already end-trimmed, so this is exact.
        let rest_after = |n_toks: usize| -> &str {
            let mut s = l;
            for _ in 0..n_toks {
                s = s.trim_start();
                let end = s.find(char::is_whitespace).unwrap_or(s.len());
                s = &s[end..];
            }
            s.trim_start()
        };
        match toks[0] {
            "input" if toks.len() >= 3 => {
                let expect = parse_new_id(toks[1], line, c.len())?;
                let got = c.input(rest_after(2));
                check_id(expect, got, line)?;
            }
            "const" if toks.len() == 3 => {
                let expect = parse_new_id(toks[1], line, c.len())?;
                let v = match toks[2] {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
                let got = c.constant(v);
                check_id(expect, got, line)?;
            }
            "gate" if toks.len() >= 4 => {
                let expect = parse_new_id(toks[1], line, c.len())?;
                let kind = kind_from_name(toks[2]).ok_or_else(bad)?;
                let mut fanins = Vec::with_capacity(toks.len() - 3);
                for t in &toks[3..] {
                    fanins.push(parse_id(t, line, c.len())?);
                }
                if !kind.arity_ok(fanins.len()) {
                    return Err(bad());
                }
                let got = c.gate(kind, &fanins);
                check_id(expect, got, line)?;
            }
            "dff" if toks.len() == 3 => {
                let expect = parse_new_id(toks[1], line, c.len())?;
                let init = match toks[2] {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
                let got = c.dff(init);
                check_id(expect, got, line)?;
            }
            "connect" if toks.len() == 3 => {
                let ff = parse_id(toks[1], line, c.len())?;
                let d = parse_id(toks[2], line, c.len())?;
                // connect_dff panics on these; the parser reads untrusted
                // bytes, so pre-check and return typed errors instead.
                if !matches!(c.view(ff), NodeView::Dff { .. }) {
                    return Err(TextError::NotAFlipFlop { line });
                }
                if !c.fanins(ff).is_empty() {
                    return Err(TextError::AlreadyConnected { line });
                }
                c.connect_dff(ff, d);
            }
            "name" if toks.len() >= 3 => {
                let id = parse_id(toks[1], line, c.len())?;
                c.set_name(id, rest_after(2));
            }
            "output" if toks.len() >= 3 => {
                let id = parse_id(toks[toks.len() - 1], line, c.len())?;
                c.mark_output(toks[1..toks.len() - 1].join(" "), id);
            }
            _ => return Err(bad()),
        }
    }
    Ok(c)
}

/// Parses `n<digits>` strictly: ASCII digits only (no sign, no whitespace —
/// `usize::from_str` would accept `"+3"`), `None` on overflow or any other
/// shape.
fn parse_index(tok: &str) -> Option<usize> {
    let digits = tok.strip_prefix('n')?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

fn parse_new_id(tok: &str, line: usize, len: usize) -> Result<usize, TextError> {
    let idx = parse_index(tok).ok_or(TextError::BadNodeRef { line })?;
    if idx != len {
        return Err(TextError::BadNodeRef { line });
    }
    Ok(idx)
}

fn check_id(expect: usize, got: NodeId, line: usize) -> Result<(), TextError> {
    if got.index() == expect {
        Ok(())
    } else {
        Err(TextError::BadNodeRef { line })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Circuit {
        let mut c = Circuit::new();
        let a = c.input("a");
        let b = c.input("b");
        let one = c.constant(true);
        let g = c.nand(&[a, b, one]);
        c.set_name(g, "front");
        let ff = c.dff(true);
        let x = c.xor(&[g, ff]);
        c.connect_dff(ff, x);
        c.mark_output("q", x);
        c
    }

    #[test]
    fn round_trip_preserves_everything() {
        let c = sample();
        let text = emit(&c);
        let back = parse(&text).unwrap();
        assert_eq!(back.len(), c.len());
        assert_eq!(back.inputs().len(), 2);
        assert_eq!(back.outputs().len(), 1);
        assert_eq!(back.cost(), c.cost());
        // Behavioural equivalence over a few steps.
        let mut s1 = crate::Sim::new(&c);
        let mut s2 = crate::Sim::new(&back);
        for m in [0u32, 1, 3, 2, 1, 0, 3] {
            let ins = [m & 1 == 1, m & 2 != 0];
            assert_eq!(s1.step(&ins), s2.step(&ins));
        }
        // Names survive.
        let named = back.node_ids().find(|&id| back.name(id) == Some("front"));
        assert!(named.is_some());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\n# hello\nscal-netlist v1\n# a comment\ninput n0 a\n\noutput f n0\n";
        let c = parse(text).unwrap();
        assert_eq!(c.inputs().len(), 1);
        assert_eq!(c.outputs().len(), 1);
    }

    #[test]
    fn bad_header_rejected() {
        assert!(matches!(parse("nope\n"), Err(TextError::BadHeader)));
    }

    #[test]
    fn forward_references_rejected() {
        let text = "scal-netlist v1\ngate n0 not n1\n";
        assert!(matches!(
            parse(text),
            Err(TextError::BadNodeRef { line: 2 })
        ));
    }

    #[test]
    fn out_of_order_ids_rejected() {
        let text = "scal-netlist v1\ninput n5 a\n";
        assert!(matches!(parse(text), Err(TextError::BadNodeRef { .. })));
    }

    #[test]
    fn bad_gate_kind_rejected() {
        let text = "scal-netlist v1\ninput n0 a\ngate n1 frob n0\n";
        assert!(matches!(parse(text), Err(TextError::BadLine { .. })));
    }

    #[test]
    fn connect_on_non_dff_is_a_typed_error() {
        let text = "scal-netlist v1\ninput n0 a\ngate n1 not n0\nconnect n1 n0\n";
        assert!(matches!(
            parse(text),
            Err(TextError::NotAFlipFlop { line: 4 })
        ));
    }

    #[test]
    fn double_connect_is_a_typed_error() {
        let text = "scal-netlist v1\ninput n0 a\ndff n1 0\nconnect n1 n0\nconnect n1 n0\n";
        assert!(matches!(
            parse(text),
            Err(TextError::AlreadyConnected { line: 5 })
        ));
    }

    #[test]
    fn signed_and_padded_node_ids_are_rejected() {
        for tok in [
            "n+0",
            "n-0",
            "n 0",
            "n0x",
            "n",
            "x0",
            "n18446744073709551616",
        ] {
            let text = format!("scal-netlist v1\ninput {tok} a\n");
            assert!(
                matches!(
                    parse(&text),
                    Err(TextError::BadNodeRef { .. } | TextError::BadLine { .. })
                ),
                "token {tok:?} must be rejected"
            );
        }
    }

    #[test]
    fn truncated_and_arity_violating_lines_are_rejected() {
        for body in [
            "gate n0",
            "gate n0 nand",
            "gate n0 not",
            "input n0",
            "dff n0",
            "dff n0 2",
            "const n0 x",
            "connect n0",
            "output f",
            "name n0",
        ] {
            let text = format!("scal-netlist v1\n{body}\n");
            assert!(parse(&text).is_err(), "line {body:?} must be rejected");
        }
        // `not` is unary: two fanins violate arity.
        let text = "scal-netlist v1\ninput n0 a\ninput n1 b\ngate n2 not n0 n1\n";
        assert!(matches!(
            parse(text),
            Err(TextError::BadLine { line: 4, .. })
        ));
    }

    #[test]
    fn minority_gates_round_trip() {
        let mut c = Circuit::new();
        let a = c.input("a");
        let b = c.input("b");
        let d = c.input("d");
        let m = c.gate(GateKind::Minority, &[a, b, d]);
        c.mark_output("m", m);
        let back = parse(&emit(&c)).unwrap();
        assert_eq!(back.output_tt(0), c.output_tt(0));
    }
}
