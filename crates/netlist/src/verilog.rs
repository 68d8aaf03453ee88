//! A structural Verilog subset as a [`Circuit`] interchange format.
//!
//! ```verilog
//! // scal-netlist Verilog subset
//! module scal_netlist (n0, n1, o0);
//!   (* scal_name = "f" *) output o0;
//!   wire n2;
//!   wire n3;
//!   (* scal_name = "a" *) input n0;
//!   (* scal_name = "b" *) input n1;
//!   nand g2 (n2, n0, n1);
//!   scal_dff #(1'b0) g3 (n3, n2);
//!   assign o0 = n3;
//! endmodule
//! ```
//!
//! Gate primitives use the standard output-first port order; flip-flops
//! and the threshold gates are instances of `scal_dff` (init value as a
//! `#(1'b_)` parameter), `scal_minority` and `scal_majority`. Constants are
//! literal `assign`s. Exact node and output names ride in
//! `(* scal_name = "…" *)` attributes. The reader also takes hand-written
//! files: statements in any order, multi-net declarations, net-to-net
//! `assign`s (read as buffers) and gates driving output ports directly.

use crate::circuit::NodeView;
use crate::reader::{err, Builder, Cursor, Name, Op, ParseError, Words};
use crate::{Circuit, GateKind, NetlistFormat};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Serializes the circuit as the structural Verilog subset.
pub(crate) fn emit(c: &Circuit) -> String {
    let attr = |name: &str| {
        let name = name.replace('\\', "\\\\").replace('"', "\\\"");
        format!("(* scal_name = \"{name}\" *) ")
    };
    let ports: Vec<String> = c
        .inputs()
        .iter()
        .map(ToString::to_string)
        .chain((0..c.outputs().len()).map(|ord| format!("o{ord}")))
        .collect();
    let mut s = format!(
        "// scal-netlist Verilog subset\nmodule scal_netlist ({});\n",
        ports.join(", ")
    );
    for (ord, o) in c.outputs().iter().enumerate() {
        let port = format!("o{ord}");
        let attr = if o.name == port {
            String::new()
        } else {
            attr(&o.name)
        };
        let _ = writeln!(s, "  {attr}output {port};");
    }
    for id in c.node_ids().filter(|&id| c.view(id) != NodeView::Input) {
        let _ = writeln!(s, "  wire {id};");
    }
    // Creation statements in node-id order: the reader replays them in file
    // order, so node ids survive the round trip exactly.
    for id in c.node_ids() {
        let (net, ix) = (id.to_string(), id.index());
        let attr = match c.name(id) {
            // An input's name defaults to its net name on read; everything
            // else defaults to unnamed.
            Some(n) if c.view(id) != NodeView::Input || n != net => attr(n),
            _ => String::new(),
        };
        let fanins: Vec<String> = c.fanins(id).iter().map(ToString::to_string).collect();
        let fanins = fanins.join(", ");
        let _ = match c.view(id) {
            NodeView::Input => writeln!(s, "  {attr}input {net};"),
            NodeView::Const(v) => writeln!(s, "  {attr}assign {net} = 1'b{};", u8::from(v)),
            NodeView::Gate(kind) => {
                let prim = kind.spelling(NetlistFormat::Verilog);
                writeln!(s, "  {attr}{prim} g{ix} ({net}, {fanins});")
            }
            NodeView::Dff { init } => {
                let d = if fanins.is_empty() { "1'bx" } else { &fanins };
                writeln!(
                    s,
                    "  {attr}scal_dff #(1'b{}) g{ix} ({net}, {d});",
                    u8::from(init)
                )
            }
        };
    }
    for (ord, o) in c.outputs().iter().enumerate() {
        let _ = writeln!(s, "  assign o{ord} = {};", o.node);
    }
    s.push_str("endmodule\n");
    s
}

#[derive(Debug, Clone, PartialEq)]
enum Tok<'a> {
    Id(&'a str),
    Lit(bool),
    Str(Cow<'a, str>),
    /// One of [`SYMBOLS`].
    Sym(&'static str),
    End,
}

/// Punctuation, the attribute brackets first.
const SYMBOLS: [&str; 8] = ["(*", "*)", "(", ")", ",", ";", "=", "#"];

const WORDS: Words = [
    ("net", "has two drivers"),
    ("net", "is part of an undriven or cyclic chain"),
    ("flip-flop D net", "is never driven"),
];

/// A token stream over a cursor, one token of lookahead.
struct Parser<'a> {
    cur: Cursor<'a>,
    peeked: Option<(usize, Tok<'a>)>,
}

impl<'a> Parser<'a> {
    fn lex(&mut self) -> Result<(usize, Tok<'a>), ParseError> {
        let cur = &mut self.cur;
        cur.skip_trivia("//", true)?;
        let line = cur.line();
        let Some(b) = cur.peek() else {
            return Ok((line, Tok::End));
        };
        let word = |extra| move |b: u8| b.is_ascii_alphanumeric() || b == b'_' || b == extra;
        let tok = match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => Tok::Id(cur.take(word(b'$'))),
            b'"' if cur.eat("\"") => Tok::Str(string(cur)?),
            // Only the bit literals 1'b0 / 1'b1 exist in this subset.
            b'0'..=b'9' => match cur.take(word(b'\'')) {
                "1'b0" | "1'B0" => Tok::Lit(false),
                "1'b1" | "1'B1" => Tok::Lit(true),
                other => return err(line, format!("unsupported literal {other:?}")),
            },
            _ => match SYMBOLS.into_iter().find(|s| cur.eat(s)) {
                Some(sym) => Tok::Sym(sym),
                None if b == b'/' || b == b'*' => {
                    return err(line, format!("unexpected '{}'", b as char))
                }
                None => {
                    let ch = cur.rest().chars().next().unwrap_or_default();
                    return err(line, format!("unexpected character {ch:?}"));
                }
            },
        };
        Ok((line, tok))
    }

    /// The next token and its line.
    fn peek(&mut self) -> Result<(usize, &Tok<'a>), ParseError> {
        if self.peeked.is_none() {
            self.peeked = Some(self.lex()?);
        }
        let (line, tok) = self.peeked.as_ref().expect("just lexed");
        Ok((*line, tok))
    }

    fn next(&mut self) -> Result<(usize, Tok<'a>), ParseError> {
        self.peek()?;
        Ok(self.peeked.take().expect("just lexed"))
    }

    fn eat(&mut self, sym: &str) -> Result<bool, ParseError> {
        let hit = matches!(self.peek()?.1, Tok::Sym(s) if *s == sym);
        if hit {
            self.peeked = None;
        }
        Ok(hit)
    }

    fn expect(&mut self, sym: &str, what: &str) -> Result<(), ParseError> {
        match self.eat(sym)? {
            true => Ok(()),
            false => err(self.peek()?.0, format!("expected {what}")),
        }
    }

    fn ident(&mut self, what: &str) -> Result<&'a str, ParseError> {
        match self.next()? {
            (_, Tok::Id(s)) => Ok(s),
            (line, _) => err(line, format!("expected {what}")),
        }
    }

    /// Parses an attribute instance, returning its `scal_name` value if
    /// present; other attribute names are skipped.
    fn attribute(&mut self) -> Result<Option<Cow<'a, str>>, ParseError> {
        let mut name = None;
        loop {
            let key = self.ident("attribute name")?;
            let value = if self.eat("=")? {
                Some(self.next()?)
            } else {
                None
            };
            match (key, value) {
                (_, Some((line, Tok::Sym(_) | Tok::End))) => {
                    return err(line, "expected attribute value")
                }
                ("scal_name", Some((_, Tok::Str(v)))) => name = Some(v),
                ("scal_name", _) => return err(self.peek()?.0, "scal_name needs a string value"),
                _ => {}
            }
            if !self.eat(",")? {
                self.expect("*)", "*)")?;
                return Ok(name);
            }
        }
    }
}

/// The body of a string literal, after its opening quote: `\"` and `\\`
/// are its only escapes, and it ends on its line.
fn string<'a>(cur: &mut Cursor<'a>) -> Result<Cow<'a, str>, ParseError> {
    let plain = |b| !matches!(b, b'"' | b'\\' | b'\n');
    let mut out = Cow::Borrowed(cur.take(plain));
    while !cur.eat("\"") {
        if !cur.eat("\\") {
            return err(cur.line(), "unterminated string");
        }
        match ["\"", "\\"].into_iter().find(|e| cur.eat(e)) {
            Some(e) => out.to_mut().push_str(e),
            None => return err(cur.line(), "bad string escape"),
        }
        out.to_mut().push_str(cur.take(plain));
    }
    Ok(out)
}

/// Parses the structural Verilog subset back into a [`Circuit`].
pub(crate) fn parse(src: &str) -> Result<Circuit, ParseError> {
    let (b, outputs) = statements(src)?;
    let mut built = b.build()?;
    for (line, port, name) in outputs {
        let Some(id) = built.node(port) else {
            return err(line, format!("output {port:?} is never driven"));
        };
        let name = name.unwrap_or(Cow::Borrowed(port));
        built.circuit.mark_output(name, id);
    }
    Ok(built.circuit)
}

/// An output port: its declaration's line, its net, its `scal_name`.
type Port<'a> = (usize, &'a str, Option<Cow<'a, str>>);

/// Reads a module into net-driving statements and its output ports.
pub(crate) fn statements(src: &str) -> Result<(Builder<'_>, Vec<Port<'_>>), ParseError> {
    let mut p = Parser {
        cur: Cursor::new(src),
        peeked: None,
    };
    let line = p.peek()?.0;
    if p.ident("keyword 'module'")? != "module" {
        return err(line, "expected 'module'");
    }
    let _module_name = p.ident("module name")?;
    if p.eat("(")? {
        // The port list is redundant with the declarations; skip it.
        let mut depth = 1usize;
        while depth > 0 {
            match p.next()? {
                (_, Tok::Sym("(" | "(*")) => depth += 1,
                (_, Tok::Sym(")" | "*)")) => depth -= 1,
                (line, Tok::End) => return err(line, "unterminated port list"),
                _ => {}
            }
        }
    }
    p.expect(";", "';' after module header")?;

    // Each declared net's keyword: "input", "output" or "wire".
    let mut nets: HashMap<&str, &str> = HashMap::new();
    let mut outputs: Vec<Port<'_>> = Vec::new();
    let mut b = Builder::new(&WORDS);
    loop {
        let attr = if p.eat("(*")? { p.attribute()? } else { None };
        let line = p.peek()?.0;
        match p.ident("module item")? {
            "endmodule" if attr.is_some() => return err(line, "attribute before endmodule"),
            "endmodule" => break,
            kw @ ("input" | "output" | "wire") => {
                loop {
                    let (line, net) = (p.peek()?.0, p.ident("net name")?);
                    if nets.insert(net, kw).is_some() {
                        return err(line, format!("net {net:?} declared twice"));
                    }
                    if kw == "input" {
                        let name = attr.clone().unwrap_or(Cow::Borrowed(net));
                        b.push(line, net, Op::Input, Name::Given(name), []);
                    } else if kw == "output" {
                        outputs.push((line, net, attr.clone()));
                    }
                    if !p.eat(",")? {
                        break;
                    }
                }
                p.expect(";", "';' after declaration")?;
            }
            "assign" => {
                let target = p.ident("assign target")?;
                p.expect("=", "'=' in assign")?;
                let (op, src) = match p.next()? {
                    (_, Tok::Lit(v)) => (Op::Const(v), None),
                    (_, Tok::Id(src)) => (Op::Alias, Some(src)),
                    (line, _) => return err(line, "expected net or literal on assign rhs"),
                };
                p.expect(";", "';' after assign")?;
                let name = attr.map_or(Name::UnlessId, Name::Given);
                b.push(line, target, op, name, src);
            }
            prim => {
                let kind = GateKind::from_spelling(prim, NetlistFormat::Verilog);
                if prim != "scal_dff" && kind.is_none() {
                    return err(line, format!("unknown module item {prim:?}"));
                }
                let mut init = false;
                if p.eat("#")? {
                    if kind.is_some() {
                        return err(line, format!("{prim} takes no parameters"));
                    }
                    p.expect("(", "'(' after '#'")?;
                    init = match p.next()? {
                        (_, Tok::Lit(v)) => v,
                        (line, _) => return err(line, "expected 1'b0 or 1'b1 init parameter"),
                    };
                    p.expect(")", "')' after init parameter")?;
                }
                if let Tok::Id(_) = p.peek()?.1 {
                    let _instance_name = p.next()?;
                }
                p.expect("(", "'(' starting port connections")?;
                let target = p.ident("port connection")?;
                let mut conns = Vec::new();
                while p.eat(",")? {
                    conns.push(p.ident("port connection")?);
                }
                p.expect(")", "')' after port connections")?;
                p.expect(";", "';' after instance")?;
                let op = match kind {
                    None if conns.len() != 1 => return err(line, "scal_dff takes exactly (q, d)"),
                    None => Op::Dff(init),
                    Some(kind) if kind.arity_ok(conns.len()) => Op::Gate(kind),
                    Some(_) => {
                        return err(line, format!("arity {} invalid for {prim}", conns.len()))
                    }
                };
                let name = attr.map_or(Name::UnlessId, Name::Given);
                b.push(line, target, op, name, conns);
            }
        }
    }
    let (line, tok) = p.peek()?;
    if tok != &Tok::End {
        return err(line, "trailing tokens after endmodule");
    }

    // Every driven net is declared and not an input. A port alias makes no
    // node; a wire alias is a buffer. Only wires name nodes after their net.
    for s in &mut b.stmts {
        match (nets.get(s.target).copied(), s.op) {
            (None, _) => return err(s.line, format!("net {:?} is not declared", s.target)),
            (Some("input"), Op::Input) => {}
            (Some("input"), _) => return err(s.line, format!("input {:?} is driven", s.target)),
            (Some("wire"), Op::Alias) => s.op = Op::Gate(GateKind::Buf),
            (Some("output"), _) if s.name == Name::UnlessId => s.name = Name::None,
            _ => {}
        }
    }
    Ok((b, outputs))
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
        let v = emit(&c);
        let back = parse(&v).unwrap_or_else(|e| panic!("{e}\n{v}"));
        assert_eq!(emit(&back), v);
        crate::io::assert_circuit_eq(&c, &back);
    }

    #[test]
    fn hand_written_forward_references_resolve() {
        let src = r#"
            // out-of-order hand-written file
            module adder (a, b, s);
              input a, b;
              output s;
              wire t;
              assign s = t;   /* forward reference */
              xor (t, a, b);
            endmodule
        "#;
        let c = parse(src).unwrap();
        assert_eq!(c.inputs().len(), 2);
        assert_eq!(c.outputs().len(), 1);
        assert_eq!(c.outputs()[0].name, "s");
        assert_eq!(c.eval(&[true, false]), vec![true]);
        assert_eq!(c.eval(&[true, true]), vec![false]);
    }

    #[test]
    fn gate_driving_output_port_directly() {
        let src = "module m (a, y); input a; output y; not (y, a); endmodule";
        let c = parse(src).unwrap();
        assert_eq!(c.eval(&[false]), vec![true]);
    }

    #[test]
    fn wire_alias_becomes_buffer_and_keeps_net_name() {
        let src = "module m (a, y); input a; output y; wire stage1; \
                   assign stage1 = a; assign y = stage1; endmodule";
        let c = parse(src).unwrap();
        let buf = c
            .node_ids()
            .find(|&id| c.view(id) == NodeView::Gate(GateKind::Buf))
            .unwrap();
        assert_eq!(c.name(buf), Some("stage1"));
    }

    #[test]
    fn typed_errors_not_panics() {
        for (src, line, needle) in [
            ("", 1, "module"),
            ("module m (; endmodule", 1, "unterminated port list"),
            ("module m; wire w; endmodule trailing", 1, "trailing"),
            ("module m; and (y, a); endmodule", 1, "not declared"),
            ("module m; input a; assign a = 1'b0; endmodule", 1, "driven"),
            (
                "module m; wire y; wire a; assign y = a; endmodule",
                1,
                "undriven or cyclic",
            ),
            (
                "module m; wire a; wire b; assign a = b; assign b = a; endmodule",
                1,
                "undriven or cyclic",
            ),
            (
                "module m; output y; input a; not (y, a); not g2 (y, a); endmodule",
                1,
                "two drivers",
            ),
            (
                "module m; input a; wire y; not #(1'b0) (y, a); endmodule",
                1,
                "parameters",
            ),
            (
                "module m; input a; wire y; not (y, a, a); endmodule",
                1,
                "arity",
            ),
            ("module m; output y; endmodule", 1, "never driven"),
            (
                "module m; wire w; assign w = 2'b10; endmodule",
                1,
                "literal",
            ),
            ("module m; wire w; @ endmodule", 1, "unexpected character"),
            ("module m; /* unterminated", 1, "unterminated block comment"),
            (
                "module m;\n  wire w;\n\n  output y;\nendmodule\n",
                4,
                "output \"y\" is never driven",
            ),
            (
                "module m;\n  wire a, b;\n  assign a = b; // b has no driver\nendmodule\n",
                3,
                "net \"a\" is part of an undriven",
            ),
            (
                "module m;\n  input d;\n  wire q;\n  scal_dff g (q, e);\nendmodule\n",
                4,
                "flip-flop D net \"e\" is never driven",
            ),
            (
                "module m;\n/* a\n b */ wire w;\n  w = 1;\nendmodule",
                4,
                "unknown module item \"w\"",
            ),
            (
                "module m;\n  (* scal_name = \"a\n\" *) input a;\nendmodule",
                2,
                "unterminated string",
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
    fn scal_name_attributes_survive_escaping() {
        let mut c = Circuit::new();
        let a = c.input("weird \"quoted\" \\ name");
        c.mark_output("out \"x\"", a);
        let v = emit(&c);
        let back = parse(&v).unwrap();
        crate::io::assert_circuit_eq(&c, &back);
    }

    #[test]
    fn unknown_attributes_are_skipped() {
        let src = "module m (a, y); (* keep, full_case = 1'b1 *) input a; \
                   output y; (* synth = x *) buf (y, a); endmodule";
        let c = parse(src).unwrap();
        assert_eq!(c.name(c.inputs()[0]), Some("a"));
    }
}
