//! Exhaustive truth-table sweeps over a compiled schedule — the engine
//! backend for `scal-analysis`'s exact (Algorithm 3.1) machinery.

use crate::compile::CompiledCircuit;
use crate::eval::Evaluator;
use crate::word::{exhaustive_word, lane_mask};
use scal_logic::Tt;
use scal_netlist::{NodeId, Override};

/// Runs `body` once per 64-lane batch of the full input space, with the
/// batch's index: batch `b` holds minterms `64b..64b + 63`, the word a
/// [`Tt::set_word`] at index `b` stores.
fn for_each_batch(
    compiled: &CompiledCircuit,
    ev: &mut Evaluator,
    mut body: impl FnMut(&Evaluator, usize),
) {
    let n = compiled.num_inputs();
    assert!(
        n <= scal_logic::MAX_VARS,
        "too many inputs for a truth table"
    );
    assert!(
        !compiled.is_sequential(),
        "truth tables are combinational-only"
    );
    let total = 1usize << n;
    let mut words = vec![0u64; n];
    for base in (0..total).step_by(64) {
        let mask = lane_mask((total - base).min(64));
        for (i, w) in words.iter_mut().enumerate() {
            *w = exhaustive_word(base, i, mask);
        }
        ev.eval(compiled, &words, &[]);
        body(ev, base / 64);
    }
}

/// Truth tables of **all primary outputs** under `overrides`, computed in a
/// single exhaustive sweep (the seed's `node_tt_with` ran one sweep per
/// output).
///
/// # Panics
///
/// Panics if the circuit is sequential or wider than
/// [`scal_logic::MAX_VARS`].
#[must_use]
pub fn output_tables(
    compiled: &CompiledCircuit,
    ev: &mut Evaluator,
    overrides: &[Override],
) -> Vec<Tt> {
    let n = compiled.num_inputs();
    let mut tts = vec![Tt::zero(n); compiled.num_outputs()];
    ev.uninstall();
    ev.install(compiled, overrides);
    for_each_batch(compiled, ev, |ev, batch| {
        for (k, tt) in tts.iter_mut().enumerate() {
            tt.set_word(batch, ev.output(compiled, k));
        }
    });
    ev.uninstall();
    tts
}

/// Truth tables of **every node** (indexed by `NodeId::index`), fault-free,
/// in one exhaustive sweep.
///
/// # Panics
///
/// As [`output_tables`].
#[must_use]
pub fn all_node_tables(compiled: &CompiledCircuit, ev: &mut Evaluator) -> Vec<Tt> {
    let n = compiled.num_inputs();
    let num_nodes = compiled.num_slots - compiled.const_slots.len();
    let mut tts = vec![Tt::zero(n); num_nodes];
    ev.uninstall();
    for_each_batch(compiled, ev, |ev, batch| {
        for (idx, tt) in tts.iter_mut().enumerate() {
            tt.set_word(batch, ev.raw_slot(idx));
        }
    });
    tts
}

/// Truth table of one node under `overrides`.
///
/// # Panics
///
/// As [`output_tables`].
#[must_use]
pub fn node_table(
    compiled: &CompiledCircuit,
    ev: &mut Evaluator,
    node: NodeId,
    overrides: &[Override],
) -> Tt {
    let n = compiled.num_inputs();
    let mut tt = Tt::zero(n);
    ev.uninstall();
    ev.install(compiled, overrides);
    for_each_batch(compiled, ev, |ev, batch| {
        tt.set_word(batch, ev.slot(node));
    });
    ev.uninstall();
    tt
}

#[cfg(test)]
mod tests {
    use super::*;
    use scal_netlist::{Circuit, Site};

    fn unequal_parity() -> (Circuit, NodeId) {
        let mut c = Circuit::new();
        let a = c.input("a");
        let b = c.input("b");
        let d = c.input("c");
        let w = c.xor(&[a, b]);
        let nd = c.not(d);
        let nw = c.not(w);
        let t1 = c.and(&[w, nd]);
        let t2 = c.and(&[nw, d]);
        let f = c.or(&[t1, t2]);
        c.mark_output("f", f);
        (c, w)
    }

    #[test]
    fn output_tables_match_node_tt_with() {
        let (c, w) = unequal_parity();
        let cc = CompiledCircuit::compile(&c);
        let mut ev = Evaluator::new(&cc);
        for overrides in [
            vec![],
            vec![Override {
                site: Site::Stem(w),
                value: false,
            }],
            vec![Override {
                site: Site::Branch {
                    node: c.outputs()[0].node,
                    pin: 1,
                },
                value: true,
            }],
        ] {
            let fast = output_tables(&cc, &mut ev, &overrides);
            for (k, o) in c.outputs().iter().enumerate() {
                assert_eq!(fast[k], c.node_tt_with(o.node, &overrides));
            }
        }
    }

    #[test]
    fn node_table_matches_node_tt() {
        let (c, w) = unequal_parity();
        let cc = CompiledCircuit::compile(&c);
        let mut ev = Evaluator::new(&cc);
        for id in c.node_ids() {
            assert_eq!(node_table(&cc, &mut ev, id, &[]), c.node_tt(id));
        }
        let ov = [Override {
            site: Site::Stem(w),
            value: true,
        }];
        for id in c.node_ids() {
            assert_eq!(
                node_table(&cc, &mut ev, id, &ov),
                c.node_tt_with(id, &ov),
                "node {id}"
            );
        }
    }
}
