//! ISCAS-85/89-style `.bench` netlists as a [`Circuit`] interchange format.
//!
//! ```text
//! # scal-netlist bench
//! INPUT(a)
//! g = NAND(a, b)
//! q = DFF(g)
//! OUTPUT(q)
//! ```
//!
//! The classic dialect is extended with `CONST0()`/`CONST1()` sources and
//! `MINORITY`/`MAJORITY` gates. What bench cannot say natively — duplicate
//! or non-identifier node names, flip-flop power-up values, output names
//! that differ from their signal — rides in `#@` directives (`#@name <sig>
//! <name>`, `#@init <sig> <0|1>`, `#@out <ord> <name>`), which other tools
//! read as comments. Statements may come in any order, as ISCAS files need.

use crate::circuit::NodeView;
use crate::reader::{err, is_blank, trim, trim_end, Builder, Cursor, Name, Op, ParseError, Words};
use crate::{Circuit, GateKind, NetlistFormat};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

/// `true` for signals the writer reserves for unnamed nodes (`N<digits>`).
fn is_canonical(sig: &str) -> bool {
    sig.strip_prefix('N')
        .is_some_and(|d| !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit()))
}

fn is_valid_signal(sig: &str) -> bool {
    !sig.is_empty() && sig.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_')
}

/// Serializes the circuit in the bench format.
pub(crate) fn emit(c: &Circuit) -> String {
    // Pick one signal per node: its own name when bench can express it and
    // no earlier node claimed it, else the canonical N<idx>.
    let mut used = HashSet::new();
    let mut name_directives = Vec::new();
    let signals: Vec<String> = c
        .node_ids()
        .map(|id| match c.name(id) {
            Some(n) if is_valid_signal(n) && !is_canonical(n) && used.insert(n) => n.to_owned(),
            other => {
                name_directives.extend(other.map(|n| (id.index(), n)));
                format!("N{}", id.index())
            }
        })
        .collect();

    let mut s = String::from("# scal-netlist bench\n");
    for id in c.node_ids() {
        let sig = &signals[id.index()];
        let args: Vec<&str> = c
            .fanins(id)
            .iter()
            .map(|f| signals[f.index()].as_str())
            .collect();
        let args = args.join(", ");
        let _ = match c.view(id) {
            NodeView::Input => writeln!(s, "INPUT({sig})"),
            NodeView::Const(v) => writeln!(s, "{sig} = CONST{}()", u8::from(v)),
            NodeView::Gate(kind) => {
                writeln!(s, "{sig} = {}({args})", kind.spelling(NetlistFormat::Bench))
            }
            NodeView::Dff { .. } => writeln!(s, "{sig} = DFF({args})"),
        };
    }
    for o in c.outputs() {
        let _ = writeln!(s, "OUTPUT({})", signals[o.node.index()]);
    }
    for (idx, name) in name_directives {
        let _ = writeln!(s, "#@name {} {name}", signals[idx]);
    }
    for &ff in c.dffs() {
        if let NodeView::Dff { init: true } = c.view(ff) {
            let _ = writeln!(s, "#@init {} 1", signals[ff.index()]);
        }
    }
    for (ord, o) in c.outputs().iter().enumerate() {
        if o.name != signals[o.node.index()] {
            let _ = writeln!(s, "#@out {ord} {}", o.name);
        }
    }
    s
}

const WORDS: Words = [
    ("signal", "defined twice"),
    ("signal", "is part of an undefined or cyclic chain"),
    ("DFF input signal", "is never defined"),
];

/// A checked `#@` directive: its line, keyword (`name`, `init` or `out`),
/// first word (a signal or an output ordinal) and the rest of its line.
type Directive<'a> = (usize, &'a str, &'a str, &'a str);

/// Parses the bench format (classic files and this writer's output alike).
pub(crate) fn parse(src: &str) -> Result<Circuit, ParseError> {
    let (b, outputs, directives) = statements(src)?;
    let mut built = b.build()?;
    let mut output_names: Vec<Option<&str>> = vec![None; outputs.len()];
    for (line, kw, first, rest) in directives {
        let node = built.node(first);
        match (kw, node.map(|id| built.circuit.view(id))) {
            ("out", _) => {
                match output_names.get_mut(first.parse::<usize>().unwrap_or(usize::MAX)) {
                    Some(slot) => *slot = Some(rest),
                    None => return err(line, format!("#@out ordinal {first} out of range")),
                }
            }
            (_, None) => return err(line, format!("#@{kw} references unknown signal {first:?}")),
            ("name", _) => built.circuit.set_name(node.expect("known"), rest),
            // Applied at creation; only check the target here.
            (_, Some(NodeView::Dff { .. })) => {}
            _ => return err(line, format!("#@init target {first:?} is not a DFF")),
        }
    }
    for (&(line, sig), name) in outputs.iter().zip(output_names) {
        let Some(id) = built.node(sig) else {
            return err(line, format!("OUTPUT references unknown signal {sig:?}"));
        };
        built.circuit.mark_output(name.unwrap_or(sig), id);
    }
    Ok(built.circuit)
}

type Statements<'a> = (Builder<'a>, Vec<(usize, &'a str)>, Vec<Directive<'a>>);

/// Reads the node statements, `OUTPUT`s and `#@` directives of a file.
pub(crate) fn statements(src: &str) -> Result<Statements<'_>, ParseError> {
    let mut b = Builder::new(&WORDS);
    let (mut outputs, mut directives) = (Vec::new(), Vec::new());
    let mut cur = Cursor::new(src);
    loop {
        cur.skip_space();
        let line = cur.line();
        if cur.eat("#@") {
            let (kw, first, rest) = (cur.word(), cur.word(), cur.rest_of_line());
            directive(kw, first, rest).or_else(|message| err(line, message))?;
            directives.push((line, kw, first, rest));
        } else if cur.eat("#") {
            cur.rest_of_line();
        } else if cur.peek().is_some() {
            // Anything from '#' on is a comment (ISCAS convention).
            let text = trim_end(cur.take(|b| b != b'\n' && b != b'#'));
            cur.rest_of_line();
            statement(text, line, &mut b, &mut outputs).or_else(|message| err(line, message))?;
        } else {
            break;
        }
    }
    let inits: HashMap<&str, bool> = directives
        .iter()
        .filter(|d| d.1 == "init")
        .map(|d| (d.2, d.3 == "1"))
        .collect();
    for s in &mut b.stmts {
        if let Op::Dff(init) = &mut s.op {
            *init = inits.get(s.target) == Some(&true);
        }
    }
    Ok((b, outputs, directives))
}

/// `true` for the bytes a signal name may hold.
fn is_signal_byte(b: u8) -> bool {
    !is_blank(b) && !matches!(b, b'\n' | b'(' | b')' | b',' | b'=' | b'#')
}

/// `true` for a name a signal may have.
fn is_signal(sig: &str) -> bool {
    !sig.is_empty() && sig.bytes().all(is_signal_byte)
}

/// Reads one statement from its line, without the comment or blanks at
/// either end.
fn statement<'a>(
    text: &'a str,
    line: usize,
    b: &mut Builder<'a>,
    outputs: &mut Vec<(usize, &'a str)>,
) -> Result<(), String> {
    let cur = &mut Cursor::new(text);
    let lhs = cur.take(is_signal_byte);
    cur.skip_blanks();
    let call = cur
        .rest()
        .strip_prefix('(')
        .and_then(|r| r.strip_suffix(')'));
    if let (Some(sig), "INPUT" | "OUTPUT") = (call, lhs) {
        let sig = trim(sig);
        if !is_signal(sig) {
            return Err(format!("bad {lhs} signal {sig:?}"));
        }
        match lhs {
            "INPUT" => b.push(line, sig, Op::Input, Name::Given(Cow::Borrowed(sig)), []),
            _ => outputs.push((line, sig)),
        }
        return Ok(());
    }
    if !cur.eat("=") || lhs.is_empty() {
        return Err(match text.split_once('=') {
            Some((lhs, _)) => format!("bad signal {:?}", trim_end(lhs)),
            None => format!("cannot parse {text:?}"),
        });
    }
    cur.skip_blanks();
    let rhs = cur.rest();
    let kind = trim_end(cur.take(|b| b != b'('));
    if !cur.eat("(") {
        return Err(format!("expected KIND(...) after '=', got {rhs:?}"));
    }
    let Some(inner) = cur.rest().strip_suffix(')') else {
        return Err(format!("unbalanced parentheses in {rhs:?}"));
    };
    let args: Vec<&str> = match inner.bytes().all(is_blank) {
        true => Vec::new(),
        false => inner.split(',').map(trim).collect(),
    };
    if !args.iter().all(|a| is_signal(a)) {
        return Err(format!("bad argument signal in {rhs:?}"));
    }
    let op = match kind.to_ascii_uppercase().as_str() {
        "DFF" if args.len() != 1 => return Err("DFF takes exactly one argument".into()),
        "DFF" => Op::Dff(false),
        "CONST0" | "CONST1" if !args.is_empty() => {
            return Err("CONST0/CONST1 take no arguments".into())
        }
        "CONST0" | "CONST1" => Op::Const(kind.ends_with('1')),
        _ => match GateKind::from_spelling(kind, NetlistFormat::Bench) {
            None => return Err(format!("unknown gate kind {kind:?}")),
            Some(k) if k.arity_ok(args.len()) => Op::Gate(k),
            Some(_) => return Err(format!("arity {} invalid for {kind}", args.len())),
        },
    };
    let name = match is_canonical(lhs) {
        true => Name::None,
        false => Name::Given(Cow::Borrowed(lhs)),
    };
    b.push(line, lhs, op, name, args);
    Ok(())
}

/// Checks a `#@` directive's shape.
fn directive(kw: &str, first: &str, rest: &str) -> Result<(), String> {
    let needs = |what| Err(format!("#@{kw} needs {what}"));
    match kw {
        "name" if rest.is_empty() => needs("<signal> <name>"),
        "init" if rest.is_empty() => needs("<signal> <0|1>"),
        "out" if rest.is_empty() => needs("<ord> <name>"),
        "init" if rest != "0" && rest != "1" => Err(format!("bad #@init value {rest:?}")),
        "out" if first.parse::<usize>().is_err() => Err(format!("bad #@out ordinal {first:?}")),
        "name" | "init" | "out" => Ok(()),
        other => Err(format!("unknown directive #@{other}")),
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
    fn writer_output_is_bit_stable() {
        let c = sample();
        let b = emit(&c);
        let back = parse(&b).unwrap_or_else(|e| panic!("{e}\n{b}"));
        assert_eq!(emit(&back), b);
        crate::io::assert_circuit_eq(&c, &back);
    }

    #[test]
    fn classic_iscas_style_file_parses() {
        let src = "\
            # s27-flavoured hand-written file\n\
            INPUT(G0)\n\
            OUTPUT(G17)\n\
            G17 = NOT(G11)\n\
            G11 = AND(G0, G5)\n\
            G5 = DFF(G10)\n\
            G10 = NOR(G17, G0)\n";
        let c = parse(src).unwrap();
        assert_eq!(c.inputs().len(), 1);
        assert_eq!(c.dffs().len(), 1);
        assert_eq!(c.outputs()[0].name, "G17");
        assert!(c.validate().is_ok());
    }

    #[test]
    fn duplicate_names_round_trip_via_directives() {
        let mut c = Circuit::new();
        let a = c.input("sig");
        let g = c.not(a);
        c.set_name(g, "sig");
        let h = c.not(g);
        c.set_name(h, "space name");
        c.mark_output("sig", h);
        let b = emit(&c);
        let back = parse(&b).unwrap();
        crate::io::assert_circuit_eq(&c, &back);
        assert_eq!(emit(&back), b);
    }

    #[test]
    fn init_directive_sets_power_up_value() {
        let src = "INPUT(x)\nq = DFF(x)\nOUTPUT(q)\n#@init q 1\n";
        let c = parse(src).unwrap();
        assert_eq!(c.view(c.dffs()[0]), NodeView::Dff { init: true });
    }

    #[test]
    fn typed_errors_not_panics() {
        for (src, line, needle) in [
            ("garbage line", 1, "cannot parse"),
            ("INPUT(a)\nINPUT(a)", 2, "defined twice"),
            ("a = AND(b, c)", 1, "undefined or cyclic"),
            ("a = NOT(a)", 1, "undefined or cyclic"),
            ("a = FROB(b)", 1, "unknown gate kind"),
            ("INPUT(a)\nb = NOT(a, a)", 2, "arity"),
            ("INPUT(a)\nb = DFF(a, a)", 2, "exactly one"),
            ("b = CONST0(x)", 1, "no arguments"),
            ("OUTPUT(zz)", 1, "unknown signal"),
            ("q = DFF(nothing)", 1, "never defined"),
            ("INPUT(a)\n#@init a 1", 2, "not a DFF"),
            ("#@init q 1", 1, "unknown signal"),
            ("#@out 3 f", 1, "out of range"),
            ("#@frob x", 1, "unknown directive"),
            ("INPUT(a b)", 1, "bad INPUT signal"),
            ("x = AND(", 1, "unbalanced parentheses"),
            ("x = 5", 1, "expected KIND"),
            (
                "# c\nINPUT(a)\n\nb = NOT(c)\nc = NOT(b)\n",
                4,
                "\"b\" is part of an undefined",
            ),
            (
                "INPUT(a)\nq = DFF(a)\n\nOUTPUT(q)  # out\nOUTPUT(r)\n",
                5,
                "unknown signal \"r\"",
            ),
            ("INPUT(a)\n  #@name a\n", 2, "#@name needs"),
            (
                "INPUT(a)\nb = AND(a,, a)  # two commas\n",
                2,
                "bad argument signal",
            ),
        ] {
            let e = parse(src).unwrap_err();
            assert_eq!(e.line, line, "{src:?}: {e}");
            assert!(
                e.message.contains(needle),
                "{src:?}: got {e}, wanted {needle:?}"
            );
        }
    }

    #[test]
    fn inline_comments_are_stripped() {
        let src = "INPUT(a)  # primary input\nb = NOT(a)\nOUTPUT(b)";
        let c = parse(src).unwrap();
        assert_eq!(c.len(), 2);
    }
}
