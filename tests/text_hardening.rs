//! Property-based hardening of the netlist interchange parsers: random
//! valid circuits — gates, constants, flip-flops, exotic names — round-trip
//! exactly through every [`NetlistFormat`], and arbitrary mutations of
//! valid files — the classic way hand-edited netlists go wrong — always
//! produce a typed error or a valid circuit, never a panic.

use proptest::prelude::*;
use scal::netlist::{circuit_eq, Circuit, GateKind, IoError, NetlistFormat};

const FORMATS: [NetlistFormat; 3] = [
    NetlistFormat::ScalText,
    NetlistFormat::Verilog,
    NetlistFormat::Bench,
];

fn read(text: &str, format: NetlistFormat) -> Result<Circuit, IoError> {
    Circuit::read(text, format)
}

const KINDS: [GateKind; 10] = [
    GateKind::Buf,
    GateKind::Not,
    GateKind::And,
    GateKind::Or,
    GateKind::Nand,
    GateKind::Nor,
    GateKind::Xor,
    GateKind::Xnor,
    GateKind::Minority,
    GateKind::Majority,
];

/// A recipe for one random circuit: constants, flip-flops (init, driver
/// pick), per-gate (kind index, fanin picks), extra node names, outputs
/// (node pick, name).
#[derive(Debug, Clone)]
struct Recipe {
    inputs: usize,
    consts: Vec<bool>,
    dffs: Vec<(bool, usize)>,
    gates: Vec<(usize, Vec<usize>)>,
    names: Vec<(usize, String)>,
    outputs: Vec<(usize, String)>,
}

fn build(recipe: &Recipe) -> Circuit {
    let mut c = Circuit::new();
    let mut nodes = Vec::new();
    for i in 0..recipe.inputs {
        nodes.push(c.input(format!("i{i}")));
    }
    for &value in &recipe.consts {
        nodes.push(c.constant(value));
    }
    for &(init, _) in &recipe.dffs {
        nodes.push(c.dff(init));
    }
    for (kind_ix, picks) in &recipe.gates {
        let kind = KINDS[kind_ix % KINDS.len()];
        // Respect each kind's arity constraints: 1 input for Buf/Not, an
        // odd count ≥ 3 for the threshold modules.
        let wanted = match kind {
            GateKind::Buf | GateKind::Not => 1,
            GateKind::Minority | GateKind::Majority => 3,
            _ => 1 + picks.len() % 3,
        };
        let fanins: Vec<_> = (0..wanted)
            .map(|k| nodes[picks[k % picks.len()] % nodes.len()])
            .collect();
        nodes.push(c.gate(kind, &fanins));
    }
    // Flip-flop drivers can be any node, forward references included.
    for (k, &(_, driver)) in recipe.dffs.iter().enumerate() {
        let ff = nodes[recipe.inputs + recipe.consts.len() + k];
        c.connect_dff(ff, nodes[driver % nodes.len()]);
    }
    for (pick, name) in &recipe.names {
        c.set_name(nodes[pick % nodes.len()], name);
    }
    for (pick, name) in &recipe.outputs {
        c.mark_output(name, nodes[pick % nodes.len()]);
    }
    c
}

/// Node names stressing the fidelity side channels: spaces and dots force
/// the bench `#@name` directive and the Verilog `scal_name` attribute, and
/// interior runs of spaces and tabs must survive every format verbatim.
fn arb_name() -> impl Strategy<Value = String> {
    const TAIL: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";
    (
        0usize..5,
        0usize..26,
        prop::collection::vec(0usize..TAIL.len(), 0..6),
        prop::collection::vec(any::<bool>(), 1..4),
    )
        .prop_map(|(flavour, head, tail, run)| {
            let head = (b'a' + head as u8) as char;
            let tail: String = tail.iter().map(|&i| TAIL[i] as char).collect();
            match flavour {
                // Plain identifier — representable as a net/signal name.
                0 => format!("{head}{tail}"),
                // Interior space ("line 20"-style) — side channel only.
                1 if !tail.is_empty() => format!("{head} {tail}"),
                1 => head.to_string(),
                // Canonical-looking N<digits> — must NOT claim that signal.
                2 => format!("N{}", tail.len()),
                // Interior run of spaces and tabs — kept verbatim.
                3 if !tail.is_empty() => {
                    let run: String = run
                        .iter()
                        .map(|&tab| if tab { '\t' } else { ' ' })
                        .collect();
                    format!("{head}{run}{tail}")
                }
                // Dotted hierarchical name — side channel only.
                _ => format!("{head}.{tail}"),
            }
        })
}

fn arb_recipe() -> impl Strategy<Value = Recipe> {
    (
        (
            1usize..5,
            prop::collection::vec(any::<bool>(), 0..3),
            prop::collection::vec((any::<bool>(), 0usize..64), 0..3),
        ),
        (
            prop::collection::vec(
                (0usize..KINDS.len(), prop::collection::vec(0usize..64, 3)),
                1..12,
            ),
            prop::collection::vec((0usize..64, arb_name()), 0..4),
            prop::collection::vec((0usize..64, arb_name()), 1..4),
        ),
    )
        .prop_map(|((inputs, consts, dffs), (gates, names, outputs))| Recipe {
            inputs,
            consts,
            dffs,
            gates,
            names,
            outputs,
        })
}

/// One text mutation: (what, position seed, payload byte).
#[derive(Debug, Clone, Copy)]
enum Edit {
    Replace(usize, u8),
    Insert(usize, u8),
    Delete(usize),
    Truncate(usize),
    DuplicateLine(usize),
    SwapLines(usize, usize),
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        (any::<usize>(), any::<u8>()).prop_map(|(p, b)| Edit::Replace(p, b)),
        (any::<usize>(), any::<u8>()).prop_map(|(p, b)| Edit::Insert(p, b)),
        any::<usize>().prop_map(Edit::Delete),
        any::<usize>().prop_map(Edit::Truncate),
        any::<usize>().prop_map(Edit::DuplicateLine),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Edit::SwapLines(a, b)),
    ]
}

fn apply(text: &str, edit: Edit) -> String {
    let mut bytes = text.as_bytes().to_vec();
    match edit {
        Edit::Replace(p, b) if !bytes.is_empty() => {
            let at = p % bytes.len();
            bytes[at] = b;
        }
        Edit::Replace(..) => {}
        Edit::Insert(p, b) => {
            let at = p % (bytes.len() + 1);
            bytes.insert(at, b);
        }
        Edit::Delete(p) if !bytes.is_empty() => {
            let at = p % bytes.len();
            bytes.remove(at);
        }
        Edit::Delete(_) => {}
        Edit::Truncate(p) if !bytes.is_empty() => bytes.truncate(p % bytes.len()),
        Edit::Truncate(_) => {}
        Edit::DuplicateLine(p) => {
            let mut lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
            if !lines.is_empty() {
                let at = p % lines.len();
                lines.insert(at, lines[at]);
            }
            bytes = lines.join(&b'\n');
        }
        Edit::SwapLines(a, b) => {
            let mut lines: Vec<&[u8]> = bytes.split(|&x| x == b'\n').collect();
            if !lines.is_empty() {
                let (a, b) = (a % lines.len(), b % lines.len());
                lines.swap(a, b);
            }
            bytes = lines.join(&b'\n');
        }
    }
    // Mutations can split UTF-8 sequences; the parsers must survive that
    // too, so feed it back lossily (all valid netlist text is ASCII).
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every generated circuit prints, in every format, to text that
    /// parses back to the same circuit and reprints bit-identically —
    /// `write ∘ read` is the identity on each printer's image.
    #[test]
    fn valid_circuits_round_trip(recipe in arb_recipe()) {
        let circuit = build(&recipe);
        for format in FORMATS {
            let text = circuit.write_string(format);
            let reparsed = read(&text, format)
                .unwrap_or_else(|e| panic!("{} output must parse: {e}\n{text}", format.name()));
            prop_assert!(
                circuit_eq(&circuit, &reparsed).is_ok(),
                "{}: {:?}",
                format.name(),
                circuit_eq(&circuit, &reparsed)
            );
            prop_assert_eq!(reparsed.write_string(format), text, "{}", format.name());
        }
    }

    /// A burst of arbitrary edits to a valid file never panics any parser,
    /// and whatever a parser accepts must itself round-trip cleanly.
    #[test]
    fn mutated_text_never_panics(
        recipe in arb_recipe(),
        edits in prop::collection::vec(arb_edit(), 1..8),
    ) {
        let circuit = build(&recipe);
        for format in FORMATS {
            let mut text = circuit.write_string(format);
            for &edit in &edits {
                text = apply(&text, edit);
            }
            if let Ok(parsed) = read(&text, format) {
                let reprinted = parsed.write_string(format);
                let again = read(&reprinted, format)
                    .expect("accepted text must reprint parseably");
                prop_assert_eq!(again.write_string(format), reprinted, "{}", format.name());
            }
        }
    }

    /// Pure noise (not derived from any valid netlist) is also safe, in
    /// every format and through the content sniffer.
    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let text = String::from_utf8_lossy(&bytes);
        for format in FORMATS {
            let _ = read(&text, format);
        }
        let _ = read(&text, NetlistFormat::sniff(&text));
    }
}
