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
use crate::reader::{err, is_blank, node_index, trim_end, Cursor, ParseError};
use crate::{Circuit, GateKind, NetlistFormat, NodeId};
use std::fmt::Write as _;

const HEADER: &str = "scal-netlist v1";

/// Serializes the netlist to the v1 text format (the implementation behind
/// [`crate::NetlistFormat::ScalText`]).
pub(crate) fn emit(c: &Circuit) -> String {
    let mut s = format!("{HEADER}\n");
    for id in c.node_ids() {
        let _ = match c.view(id) {
            NodeView::Input => write!(s, "input {id} {}", c.name(id).unwrap_or("_")),
            NodeView::Const(v) => write!(s, "const {id} {}", u8::from(v)),
            NodeView::Gate(kind) => write!(s, "gate {id} {kind}")
                .and_then(|()| c.fanins(id).iter().try_for_each(|f| write!(s, " {f}"))),
            NodeView::Dff { init } => write!(s, "dff {id} {}", u8::from(init)),
        };
        s.push('\n');
    }
    for &ff in c.dffs() {
        if let Some(d) = c.fanins(ff).first() {
            let _ = writeln!(s, "connect {ff} {d}");
        }
    }
    for id in c.node_ids().filter(|&id| c.view(id) != NodeView::Input) {
        if let Some(n) = c.name(id) {
            let _ = writeln!(s, "name {id} {n}");
        }
    }
    for o in c.outputs() {
        let _ = writeln!(s, "output {} {}", o.name, o.node);
    }
    s
}

/// Parses the v1 text format (the implementation behind
/// [`crate::NetlistFormat::ScalText`]).
pub(crate) fn parse(src: &str) -> Result<Circuit, ParseError> {
    let mut cur = Cursor::new(src);
    cur.skip_trivia("#", false)?;
    let line = cur.line();
    if cur.rest_of_line() != HEADER {
        return err(line, format!("missing '{HEADER}' header"));
    }
    let mut c = Circuit::new();
    loop {
        cur.skip_trivia("#", false)?;
        if cur.peek().is_none() {
            return Ok(c);
        }
        let line = cur.line();
        let text = cur.rest_of_line();
        statement(&mut c, text).or_else(|message| err(line, message))?;
    }
}

/// Applies one line, without comments or blanks at either end.
fn statement(c: &mut Circuit, text: &str) -> Result<(), String> {
    let cur = &mut Cursor::new(text);
    let bad = || format!("cannot parse {text:?}");
    let kw = cur.word();
    if let "input" | "const" | "gate" | "dff" = kw {
        let tok = cur.word();
        if node_index(tok) != Some(c.len()) {
            return Err(format!("expected new node n{}, got {tok:?}", c.len()));
        }
        match kw {
            "input" => c.input(name(cur).ok_or_else(bad)?),
            "const" => c.constant(last_bit(cur).ok_or_else(bad)?),
            "dff" => c.dff(last_bit(cur).ok_or_else(bad)?),
            _ => {
                let word = cur.word();
                let kind = GateKind::from_spelling(word, NetlistFormat::ScalText)
                    .ok_or_else(|| format!("unknown gate kind {word:?}"))?;
                let mut fanins = Vec::new();
                while cur.peek().is_some() {
                    fanins.push(node(c, cur.word())?);
                }
                if !kind.arity_ok(fanins.len()) {
                    return Err(format!("arity {} invalid for {kind}", fanins.len()));
                }
                c.gate(kind, &fanins)
            }
        };
        return Ok(());
    }
    match kw {
        "connect" => {
            let (ff, d) = (node(c, cur.word())?, node(c, cur.word())?);
            if !cur.word().is_empty() {
                return Err(bad());
            }
            // connect_dff panics on these; the parser reads untrusted
            // bytes, so pre-check and return typed errors instead.
            if !matches!(c.view(ff), NodeView::Dff { .. }) {
                return Err(format!("connect target {ff} is not a flip-flop"));
            }
            if !c.fanins(ff).is_empty() {
                return Err(format!("flip-flop {ff} is already connected"));
            }
            c.connect_dff(ff, d);
        }
        "name" => {
            let id = node(c, cur.word())?;
            c.set_name(id, name(cur).ok_or_else(bad)?);
        }
        "output" => {
            // The name is everything up to the last word, verbatim.
            let rest = cur.rest_of_line();
            let at = rest.bytes().rposition(is_blank).ok_or_else(bad)?;
            let id = node(c, &rest[at + 1..])?;
            c.mark_output(trim_end(&rest[..at]), id);
        }
        _ => return Err(bad()),
    }
    Ok(())
}

/// A name: the rest of the line (names may contain blanks), not empty.
fn name<'a>(cur: &mut Cursor<'a>) -> Option<&'a str> {
    Some(cur.rest_of_line()).filter(|n| !n.is_empty())
}

/// A `0` or `1` that ends the line.
fn last_bit(cur: &mut Cursor<'_>) -> Option<bool> {
    let bit = cur.word();
    (cur.word().is_empty() && (bit == "0" || bit == "1")).then_some(bit == "1")
}

/// An existing node named by `tok`.
fn node(c: &Circuit, tok: &str) -> Result<NodeId, String> {
    node_index(tok)
        .and_then(|ix| c.node_id(ix))
        .ok_or_else(|| format!("bad node reference {tok:?}"))
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

    /// Asserts that `text` is rejected at `line` with a message containing
    /// `needle`.
    fn rejects(text: &str, line: usize, needle: &str) {
        let e = parse(text).unwrap_err();
        assert_eq!(e.line, line, "{text:?}: {e}");
        assert!(
            e.message.contains(needle),
            "{text:?}: got {e}, wanted {needle:?}"
        );
    }

    #[test]
    fn bad_header_rejected() {
        rejects("nope\n", 1, "missing 'scal-netlist v1' header");
        rejects("", 1, "header");
        rejects("# only a comment\n\nscal-netlist v2\n", 3, "header");
    }

    #[test]
    fn forward_references_rejected() {
        rejects(
            "scal-netlist v1\ngate n0 not n1\n",
            2,
            "bad node reference \"n1\"",
        );
    }

    #[test]
    fn out_of_order_ids_rejected() {
        rejects("scal-netlist v1\ninput n5 a\n", 2, "expected new node n0");
    }

    #[test]
    fn bad_gate_kind_rejected() {
        let text = "scal-netlist v1\ninput n0 a\ngate n1 frob n0\n";
        rejects(text, 3, "unknown gate kind \"frob\"");
    }

    #[test]
    fn connect_on_non_dff_is_a_typed_error() {
        let text = "scal-netlist v1\ninput n0 a\ngate n1 not n0\nconnect n1 n0\n";
        rejects(text, 4, "not a flip-flop");
    }

    #[test]
    fn double_connect_is_a_typed_error() {
        let text = "scal-netlist v1\ninput n0 a\ndff n1 0\nconnect n1 n0\nconnect n1 n0\n";
        rejects(text, 5, "already connected");
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
            rejects(
                &format!("scal-netlist v1\ninput {tok} a\n"),
                2,
                "expected new node n0",
            );
        }
    }

    #[test]
    fn truncated_and_arity_violating_lines_are_rejected() {
        for (body, needle) in [
            ("gate n0", "unknown gate kind \"\""),
            ("gate n0 nand", "arity 0 invalid for nand"),
            ("gate n0 not", "arity 0 invalid for not"),
            ("input n0", "cannot parse \"input n0\""),
            ("dff n0", "cannot parse"),
            ("dff n0 2", "cannot parse"),
            ("const n0 x", "cannot parse"),
            ("connect n0", "bad node reference \"n0\""),
            ("output f", "cannot parse \"output f\""),
            ("name n0", "bad node reference \"n0\""),
        ] {
            rejects(&format!("scal-netlist v1\n{body}\n"), 2, needle);
        }
        // `not` is unary: two fanins violate arity.
        let text = "scal-netlist v1\ninput n0 a\ninput n1 b\ngate n2 not n0 n1\n";
        rejects(text, 4, "arity 2 invalid for not");
        // Trailing words, and a line the format does not know.
        rejects("scal-netlist v1\n\n# c\ndff n0 1 x\n", 4, "cannot parse");
        rejects("scal-netlist v1\nwire n0\n", 2, "cannot parse \"wire n0\"");
    }

    #[test]
    fn output_and_node_names_keep_interior_blanks_verbatim() {
        let text = "scal-netlist v1\ninput n0 a  b\t c\nname n0 x\t\ty\noutput p  q\tr \t n0\r\n";
        let c = parse(text).unwrap();
        assert_eq!(c.name(c.inputs()[0]), Some("x\t\ty"));
        assert_eq!(c.outputs()[0].name, "p  q\tr");
        let mut d = Circuit::new();
        let a = d.input("a  b\t c");
        d.mark_output("p  q\tr", a);
        let back = parse(&emit(&d)).unwrap();
        crate::io::assert_circuit_eq(&d, &back);
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
