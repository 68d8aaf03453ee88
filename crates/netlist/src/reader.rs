//! The parts the netlist readers share: one [`ParseError`], one byte
//! [`Cursor`] that scans source text in place, and one statement
//! [`Builder`] that the Verilog and bench grammars feed.
//!
//! A grammar pushes one statement per net driver, in file order, naming its
//! fanins by borrowed net names. [`Builder::build`] resolves the names
//! through one table, creates the nodes in linear time — forward references
//! included — and wires flip-flop D inputs last. The creation order is the
//! one a round-by-round worklist over the statements would give: statement
//! `s` is created in round `r(s) = max(1, max over fanins f of r(f) +
//! [f is not before s])`, and within a round in file order. Writers emit
//! statements in node-id order, so their files read back with the same ids.

use crate::{Circuit, GateKind, NodeId};
use std::borrow::Cow;
use std::collections::HashMap;

/// A reader's error: the offending 1-based line and what went wrong there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl core::fmt::Display for ParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

pub(crate) fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        message: message.into(),
    })
}

/// `true` for the bytes that separate words within a line.
pub(crate) fn is_blank(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | 0x0b | 0x0c)
}

/// `s` without its trailing blanks.
pub(crate) fn trim_end(s: &str) -> &str {
    s.trim_end_matches(|c: char| c.is_ascii() && is_blank(c as u8))
}

/// `s` without its leading and trailing blanks.
pub(crate) fn trim(s: &str) -> &str {
    trim_end(s).trim_start_matches(|c: char| c.is_ascii() && is_blank(c as u8))
}

/// A position in source text that hands out borrowed slices of it and
/// counts the newlines it steps over.
#[derive(Debug)]
pub(crate) struct Cursor<'a> {
    src: &'a str,
    pos: usize,
    line: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(src: &'a str) -> Self {
        Cursor {
            src,
            pos: 0,
            line: 1,
        }
    }

    /// The 1-based line of the next byte.
    pub(crate) fn line(&self) -> usize {
        self.line
    }

    pub(crate) fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    /// The unread text.
    pub(crate) fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    /// Steps past `s` if the unread text starts with it.
    pub(crate) fn eat(&mut self, s: &str) -> bool {
        let hit = self.rest().starts_with(s);
        if hit {
            self.pos += s.len();
        }
        hit
    }

    /// Takes the longest run of bytes that satisfy `f`, which must reject
    /// `b'\n'` and treat all non-ASCII bytes alike, so that a run never
    /// ends inside a UTF-8 sequence.
    pub(crate) fn take(&mut self, f: impl Fn(u8) -> bool) -> &'a str {
        let start = self.pos;
        let bytes = self.src.as_bytes();
        while self.pos < bytes.len() && f(bytes[self.pos]) {
            self.pos += 1;
        }
        &self.src[start..self.pos]
    }

    pub(crate) fn skip_blanks(&mut self) {
        self.take(is_blank);
    }

    /// The next word of the line: blanks, then a run of anything else.
    pub(crate) fn word(&mut self) -> &'a str {
        self.skip_blanks();
        self.take(|b| !is_blank(b) && b != b'\n')
    }

    /// Takes what is left of the line, without its leading and trailing
    /// blanks, and steps past its newline.
    pub(crate) fn rest_of_line(&mut self) -> &'a str {
        self.skip_blanks();
        let text = self.take(|b| b != b'\n');
        if self.eat("\n") {
            self.line += 1;
        }
        trim_end(text)
    }

    /// Skips whitespace, newlines included.
    pub(crate) fn skip_space(&mut self) {
        loop {
            self.skip_blanks();
            if !self.eat("\n") {
                return;
            }
            self.line += 1;
        }
    }

    /// Skips whitespace and comments: from `comment` to the end of its line
    /// and, when `blocks`, from `/*` to `*/`.
    pub(crate) fn skip_trivia(&mut self, comment: &str, blocks: bool) -> Result<(), ParseError> {
        loop {
            self.skip_space();
            if self.eat(comment) {
                self.rest_of_line();
            } else if blocks && self.eat("/*") {
                let Some(len) = self.rest().find("*/") else {
                    return err(self.line, "unterminated block comment");
                };
                self.line += self.rest()[..len].bytes().filter(|&b| b == b'\n').count();
                self.pos += len + 2;
            } else {
                return Ok(());
            }
        }
    }
}

/// What a statement creates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    Input,
    Const(bool),
    /// A flip-flop with its power-up value; its one fanin is the D net.
    Dff(bool),
    /// A gate over the fanins.
    Gate(GateKind),
    /// No node: the target names the same node as its one fanin.
    Alias,
}

/// The name a statement gives its node.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Name<'a> {
    /// None (an input is named after its target).
    None,
    /// This name.
    Given(Cow<'a, str>),
    /// The target, unless the target spells the created node's id.
    UnlessId,
}

/// One statement: the net it drives, what drives it, from which nets.
#[derive(Debug)]
pub(crate) struct Stmt<'a> {
    pub(crate) line: usize,
    pub(crate) target: &'a str,
    pub(crate) op: Op,
    pub(crate) name: Name<'a>,
    args: (u32, u32),
}

/// The wording of the builder's errors in one format: `(noun, complaint)`
/// around the offending name, for a net defined twice, for a chain that
/// never resolves, and for a flip-flop D net that is never driven.
pub(crate) type Words = [(&'static str, &'static str); 3];

/// Statements in file order, and the fanin names they reference.
#[derive(Debug)]
pub(crate) struct Builder<'a> {
    pub(crate) stmts: Vec<Stmt<'a>>,
    args: Vec<&'a str>,
    words: &'static Words,
}

/// The circuit a builder created and the node each net name resolves to.
pub(crate) struct Built<'a> {
    pub(crate) circuit: Circuit,
    table: HashMap<&'a str, u32>,
    ids: Vec<NodeId>,
}

impl Built<'_> {
    pub(crate) fn node(&self, name: &str) -> Option<NodeId> {
        self.table.get(name).map(|&s| self.ids[s as usize])
    }
}

/// A fanin name no statement drives.
const MISSING: u32 = u32::MAX;

impl<'a> Builder<'a> {
    pub(crate) fn new(words: &'static Words) -> Self {
        Builder {
            stmts: Vec::new(),
            args: Vec::new(),
            words,
        }
    }

    pub(crate) fn push(
        &mut self,
        line: usize,
        target: &'a str,
        op: Op,
        name: Name<'a>,
        args: impl IntoIterator<Item = &'a str>,
    ) {
        // Statement and fanin indices are stored as `u32`, like node ids.
        let count = |len| u32::try_from(len).expect("fewer than 2^32 statements and fanins");
        count(self.stmts.len());
        let start = count(self.args.len());
        self.args.extend(args);
        let args = (start, count(self.args.len()));
        let stmt = Stmt {
            line,
            target,
            op,
            name,
            args,
        };
        self.stmts.push(stmt);
    }

    fn error<T>(&self, what: usize, stmt: &Stmt<'_>, name: &str) -> Result<T, ParseError> {
        let (noun, complaint) = self.words[what];
        err(stmt.line, format!("{noun} {name:?} {complaint}"))
    }

    /// Creates the nodes and connects the flip-flops. Fails on a target
    /// defined twice, then at the first statement in file order that can
    /// never be created (an undriven fanin or a cycle), then at the first
    /// flip-flop whose D net nothing drives.
    pub(crate) fn build(self) -> Result<Built<'a>, ParseError> {
        let n = self.stmts.len();
        let mut table = HashMap::with_capacity(n);
        for (ix, s) in self.stmts.iter().enumerate() {
            if table.insert(s.target, ix as u32).is_some() {
                return self.error(0, s, s.target);
            }
        }
        // Each fanin name's statement, parallel to `args`.
        let lookup = |a: &&str| table.get(a).copied().unwrap_or(MISSING);
        let deps: Vec<u32> = self.args.iter().map(lookup).collect();
        let waits = |s: usize| match self.stmts[s].op {
            Op::Gate(_) | Op::Alias => {
                &deps[self.stmts[s].args.0 as usize..self.stmts[s].args.1 as usize]
            }
            Op::Input | Op::Const(_) | Op::Dff(_) => &[],
        };
        // Rounds, depth first, on an explicit stack so that long chains
        // cannot overflow the thread's: `round[s]` is 0 until visited, OPEN
        // while on the stack, then its round or NEVER.
        const OPEN: u32 = u32::MAX - 1;
        const NEVER: u32 = u32::MAX;
        let mut round = vec![0u32; n];
        let mut stack: Vec<(usize, usize, u32)> = Vec::new();
        for root in 0..n {
            if round[root] == 0 {
                round[root] = OPEN;
                stack.push((root, 0, 1));
            }
            while let Some(&mut (s, ref mut next, ref mut acc)) = stack.last_mut() {
                let Some(&f) = waits(s).get(*next) else {
                    round[s] = *acc;
                    stack.pop();
                    continue;
                };
                match round.get(f as usize).copied().unwrap_or(NEVER) {
                    0 => {
                        round[f as usize] = OPEN;
                        stack.push((f as usize, 0, 1));
                        continue;
                    }
                    OPEN | NEVER => *acc = NEVER,
                    r if *acc != NEVER => *acc = (*acc).max(r + u32::from(f as usize >= s)),
                    _ => {}
                }
                *next += 1;
            }
        }
        if let Some(s) = round.iter().position(|&r| r == NEVER) {
            return self.error(1, &self.stmts[s], self.stmts[s].target);
        }
        // A stable counting sort by round keeps file order within a round.
        let mut starts = vec![0u32; n + 2];
        for &r in &round {
            starts[r as usize + 1] += 1;
        }
        for r in 1..starts.len() {
            starts[r] += starts[r - 1];
        }
        let mut order = vec![0u32; n];
        for (s, &r) in round.iter().enumerate() {
            order[starts[r as usize] as usize] = s as u32;
            starts[r as usize] += 1;
        }

        let mut c = Circuit::new();
        let mut ids = vec![NodeId(0); n];
        let mut fanins = Vec::new();
        for s in order.into_iter().map(|s| s as usize) {
            let stmt = &self.stmts[s];
            let deps = &deps[stmt.args.0 as usize..stmt.args.1 as usize];
            ids[s] = match (stmt.op, &stmt.name) {
                (Op::Input, Name::Given(name)) => c.input(name.as_ref()),
                (Op::Input, _) => c.input(stmt.target),
                (Op::Alias, _) => ids[deps[0] as usize],
                (Op::Const(v), _) => c.constant(v),
                (Op::Dff(init), _) => c.dff(init),
                (Op::Gate(kind), _) => {
                    fanins.clear();
                    fanins.extend(deps.iter().map(|&d| ids[d as usize]));
                    c.gate(kind, &fanins)
                }
            };
            match (stmt.op, &stmt.name) {
                (Op::Input | Op::Alias, _) | (_, Name::None) => {}
                (_, Name::Given(name)) => c.set_name(ids[s], name.as_ref()),
                (_, Name::UnlessId) if spells(stmt.target, ids[s]) => {}
                (_, Name::UnlessId) => c.set_name(ids[s], stmt.target),
            }
        }
        for (s, stmt) in self.stmts.iter().enumerate() {
            if let Op::Dff(_) = stmt.op {
                match deps[stmt.args.0 as usize] {
                    MISSING => return self.error(2, stmt, self.args[stmt.args.0 as usize]),
                    d => c.connect_dff(ids[s], ids[d as usize]),
                }
            }
        }
        Ok(Built {
            circuit: c,
            table,
            ids,
        })
    }
}

/// Parses `n<digits>` strictly: ASCII digits only (no sign, no whitespace —
/// `usize::from_str` would accept `"+3"`), `None` on overflow or any other
/// shape.
pub(crate) fn node_index(tok: &str) -> Option<usize> {
    let digits = tok.strip_prefix('n')?;
    let digits = Some(digits).filter(|d| !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit()))?;
    digits.parse().ok()
}

/// `true` iff `net` is `id`'s own spelling, `n<index>`.
fn spells(net: &str, id: NodeId) -> bool {
    node_index(net) == Some(id.index()) && (net == "n0" || !net.starts_with("n0"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::circuit_eq;
    use crate::{bench_fmt, verilog, NetlistFormat};
    use proptest::prelude::*;

    /// The deferral worklist the Verilog and bench readers ran before the
    /// linear builder, kept as its oracle: each sweep creates, in file
    /// order, every pending statement whose fanins all exist, and a sweep
    /// that creates nothing fails at the first statement left.
    fn worklist(b: &Builder<'_>) -> Result<Circuit, usize> {
        let mut c = Circuit::new();
        let mut map: HashMap<&str, NodeId> = HashMap::new();
        let mut dff_connects: Vec<(usize, NodeId, &str)> = Vec::new();
        let mut pending: Vec<&Stmt<'_>> = b.stmts.iter().collect();
        while !pending.is_empty() {
            let mut next_round = Vec::new();
            let mut progressed = false;
            for s in pending {
                let fanins = &b.args[s.args.0 as usize..s.args.1 as usize];
                let ready = match s.op {
                    Op::Input | Op::Dff(_) | Op::Const(_) => true,
                    Op::Gate(_) | Op::Alias => fanins.iter().all(|f| map.contains_key(f)),
                };
                if !ready {
                    next_round.push(s);
                    continue;
                }
                progressed = true;
                let id = match s.op {
                    Op::Input => {
                        let name = match &s.name {
                            Name::Given(n) => n.to_string(),
                            _ => s.target.to_owned(),
                        };
                        map.insert(s.target, c.input(name));
                        continue;
                    }
                    Op::Gate(kind) => {
                        let ids: Vec<_> = fanins.iter().map(|f| map[f]).collect();
                        c.gate(kind, &ids)
                    }
                    Op::Dff(init) => {
                        let ff = c.dff(init);
                        dff_connects.push((s.line, ff, fanins[0]));
                        ff
                    }
                    Op::Const(v) => c.constant(v),
                    Op::Alias => {
                        map.insert(s.target, map[fanins[0]]);
                        continue;
                    }
                };
                match &s.name {
                    Name::Given(n) => c.set_name(id, n.to_string()),
                    Name::UnlessId if s.target != id.to_string() => c.set_name(id, s.target),
                    _ => {}
                }
                map.insert(s.target, id);
            }
            if !progressed {
                return Err(next_round[0].line);
            }
            pending = next_round;
        }
        for (line, ff, d) in dff_connects {
            match map.get(d) {
                Some(&id) => c.connect_dff(ff, id),
                None => return Err(line),
            }
        }
        Ok(c)
    }

    /// Holds the builder to the worklist: the same circuit, or an error at
    /// the same line.
    fn agrees_with_worklist(b: Builder<'_>) -> Result<(), TestCaseError> {
        match (worklist(&b), b.build()) {
            (Ok(old), Ok(new)) => {
                let same = circuit_eq(&new.circuit, &old);
                prop_assert!(same.is_ok(), "{:?}", same);
            }
            (Err(line), Err(new)) => prop_assert_eq!(new.line, line, "{}", new),
            (old, new) => prop_assert!(false, "worklist {:?}, builder {:?}", old.err(), new.err()),
        }
        Ok(())
    }

    const KINDS: [GateKind; 6] = [
        GateKind::Nand,
        GateKind::Not,
        GateKind::Xor,
        GateKind::Or,
        GateKind::Majority,
        GateKind::Buf,
    ];

    /// A random valid circuit: inputs, flip-flops (init, driver), gates
    /// (kind, fanin picks), a few names, outputs.
    fn arb_circuit() -> impl Strategy<Value = Circuit> {
        (
            (
                1usize..4,
                prop::collection::vec((any::<bool>(), 0usize..64), 0..3),
            ),
            prop::collection::vec(
                (0usize..KINDS.len(), prop::collection::vec(0usize..64, 3)),
                1..14,
            ),
            prop::collection::vec((0usize..64, 0usize..3), 0..3),
            prop::collection::vec(0usize..64, 1..4),
        )
            .prop_map(|((inputs, dffs), gates, names, outputs)| {
                let mut c = Circuit::new();
                let mut nodes: Vec<NodeId> =
                    (0..inputs).map(|i| c.input(format!("i{i}"))).collect();
                nodes.extend(dffs.iter().map(|&(init, _)| c.dff(init)));
                nodes.push(c.constant(true));
                for (kind, picks) in gates {
                    let kind = KINDS[kind];
                    let arity = match kind {
                        GateKind::Not | GateKind::Buf => 1,
                        GateKind::Majority => 3,
                        _ => 2,
                    };
                    let fanins: Vec<_> = picks[..arity]
                        .iter()
                        .map(|&p| nodes[p % nodes.len()])
                        .collect();
                    nodes.push(c.gate(kind, &fanins));
                }
                for (k, &(_, driver)) in dffs.iter().enumerate() {
                    c.connect_dff(nodes[inputs + k], nodes[driver % nodes.len()]);
                }
                for (pick, flavour) in names {
                    let name = ["g7", "line 20", "N3"][flavour];
                    c.set_name(nodes[pick % nodes.len()], name);
                }
                for (ord, pick) in outputs.into_iter().enumerate() {
                    c.mark_output(format!("o{ord}"), nodes[pick % nodes.len()]);
                }
                c
            })
    }

    /// `text` with the lines after the first `head` and before the last
    /// `tail` reordered by `keys`, and one of them dropped if `drop` picks
    /// one.
    fn shuffle(text: &str, head: usize, tail: usize, keys: &[u64], drop: Option<usize>) -> String {
        let lines: Vec<&str> = text.lines().collect();
        let (body_end, mut body) = (lines.len() - tail, Vec::new());
        for (ix, line) in lines[head..body_end].iter().enumerate() {
            body.push(((keys[ix % keys.len()], ix), *line));
        }
        body.sort();
        if let Some(d) = drop {
            body.remove(d % body.len());
        }
        let body = body.into_iter().map(|(_, line)| line);
        let mut out = String::new();
        for line in lines[..head]
            .iter()
            .copied()
            .chain(body)
            .chain(lines[body_end..].iter().copied())
        {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Valid bench and Verilog files with their statements shuffled,
        /// and with one of them dropped, build as the worklist built them.
        #[test]
        fn shuffled_files_build_as_the_worklist_built_them(
            c in arb_circuit(),
            keys in prop::collection::vec(any::<u64>(), 1..64),
            drop in (0usize..3, any::<usize>()),
        ) {
            // One case in three drops a statement.
            let drop = (drop.0 == 0).then_some(drop.1);
            let bench = shuffle(&c.write_string(NetlistFormat::Bench), 1, 0, &keys, drop);
            if drop.is_none() {
                prop_assert!(bench_fmt::parse(&bench).is_ok(), "{}", bench);
            }
            if let Ok((b, ..)) = bench_fmt::statements(&bench) {
                agrees_with_worklist(b)?;
            }
            let v = shuffle(&c.write_string(NetlistFormat::Verilog), 2, 1, &keys, drop);
            if drop.is_none() {
                prop_assert!(verilog::parse(&v).is_ok(), "{}", v);
            }
            if let Ok((b, _)) = verilog::statements(&v) {
                agrees_with_worklist(b)?;
            }
        }

        /// Random statement graphs — forward references, undriven fanins,
        /// cycles and aliases — build as the worklist built them.
        #[test]
        fn random_statements_build_as_the_worklist_built_them(
            spec in prop::collection::vec((0u8..5, prop::collection::vec(0usize..48, 0..4)), 1..40),
        ) {
            let names: Vec<String> = (0..48).map(|k| format!("s{k}")).collect();
            let mut b = Builder::new(&[("", ""); 3]);
            for (k, (op, args)) in spec.iter().enumerate() {
                let (op, args) = match (op, args.len()) {
                    (1, _) => (Op::Const(true), &args[..0]),
                    (2, 1..) => (Op::Dff(false), &args[..1]),
                    (3, 1..) => (Op::Gate(GateKind::And), &args[..]),
                    (4, 1..) => (Op::Alias, &args[..1]),
                    _ => (Op::Input, &args[..0]),
                };
                let args = args.iter().map(|&a| names[a].as_str());
                b.push(k + 1, &names[k], op, Name::UnlessId, args);
            }
            agrees_with_worklist(b)?;
        }
    }

    #[test]
    fn cursor_counts_lines_through_comments_and_trims_lines() {
        let mut cur = Cursor::new("// one\n/* two\nthree */ \t word rest  of line \r\nnext");
        cur.skip_trivia("//", true).unwrap();
        assert_eq!(cur.line(), 3);
        assert_eq!(cur.word(), "word");
        assert_eq!(cur.rest_of_line(), "rest  of line");
        assert_eq!((cur.line(), cur.rest()), (4, "next"));
        let mut open = Cursor::new("\n\n/* never\nclosed");
        assert_eq!(open.skip_trivia("//", true).unwrap_err().line, 3);
        assert_eq!(trim(" \ta b\x0c"), "a b");
    }

    #[test]
    fn node_names_spell_ids_only_exactly() {
        let id = NodeId(12);
        assert!(spells("n12", id));
        for net in ["n012", "n+12", "n1", "n", "x12", "n12 "] {
            assert!(!spells(net, id), "{net}");
        }
    }
}
