//! Fault types and fault-universe enumeration.

use scal_netlist::{Circuit, NodeView, Override, Site, Structure};
use std::fmt::{self, Write as _};

/// A single stuck-at fault (paper Definition 2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fault {
    /// The faulted line.
    pub site: Site,
    /// The stuck value: `false` = s-a-0, `true` = s-a-1.
    pub stuck: bool,
}

impl Fault {
    /// Creates a stuck-at fault.
    #[must_use]
    pub fn new(site: Site, stuck: bool) -> Self {
        Fault { site, stuck }
    }

    /// The [`Override`] that injects this fault into an evaluation.
    #[must_use]
    pub fn to_override(self) -> Override {
        Override {
            site: self.site,
            value: self.stuck,
        }
    }

    /// Describes the fault using `circuit`'s line names — the label coverage
    /// reports cross-reference against the netlist. Named nodes print their
    /// name (`"carry s-a-0"`); unnamed ones fall back to the positional
    /// [`Site`] rendering. Branch faults name both ends of the line
    /// (`"a->sum[0] s-a-1"`).
    #[must_use]
    pub fn describe(&self, circuit: &Circuit) -> String {
        let mut out = String::new();
        self.describe_into(circuit, &mut out);
        out
    }

    /// Appends [`Fault::describe`]'s text to `out`, with no allocation
    /// besides `out` growing — once, for the usual label of up to 24
    /// bytes.
    pub fn describe_into(&self, circuit: &Circuit, out: &mut String) {
        out.reserve(24);
        let name_into = |out: &mut String, id: scal_netlist::NodeId| match circuit.name(id) {
            Some(name) => out.push_str(name),
            None => {
                let _ = write!(out, "n{}", id.index());
            }
        };
        match self.site {
            Site::Stem(id) => name_into(out, id),
            Site::Branch { node, pin } => match circuit.fanins(node).get(pin) {
                Some(&src) => {
                    name_into(out, src);
                    out.push_str("->");
                    name_into(out, node);
                    let _ = write!(out, "[{pin}]");
                }
                None => {
                    let _ = write!(out, "{}", self.site);
                }
            },
        }
        out.push_str(if self.stuck { " s-a-1" } else { " s-a-0" });
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} s-a-{}", self.site, u8::from(self.stuck))
    }
}

/// A set of simultaneous stuck-at faults — the multiple-fault condition of
/// Definition 2.3. A single fault and a unidirectional fault (Definition
/// 2.2) are its degenerate cases, mirroring the containment the paper notes
/// under Fig. 2.1.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultSet {
    faults: Vec<Fault>,
}

impl FaultSet {
    /// Creates an empty (fault-free) set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a set from faults, dropping exact duplicates.
    #[must_use]
    pub fn from_faults(faults: impl IntoIterator<Item = Fault>) -> Self {
        let mut v: Vec<Fault> = faults.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        FaultSet { faults: v }
    }

    /// Adds a fault.
    pub fn insert(&mut self, fault: Fault) {
        if !self.faults.contains(&fault) {
            self.faults.push(fault);
            self.faults.sort_unstable();
        }
    }

    /// The contained faults.
    #[must_use]
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Number of simultaneous faults.
    #[must_use]
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// `true` iff fault-free.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// `true` iff all stuck values agree — the *unidirectional* fault of
    /// Definition 2.2.
    #[must_use]
    pub fn is_unidirectional(&self) -> bool {
        self.faults.windows(2).all(|w| w[0].stuck == w[1].stuck)
    }

    /// `true` iff this is a single fault (Definition 2.1).
    #[must_use]
    pub fn is_single(&self) -> bool {
        self.faults.len() == 1
    }

    /// The overrides injecting this fault set.
    #[must_use]
    pub fn to_overrides(&self) -> Vec<Override> {
        self.faults.iter().map(|f| f.to_override()).collect()
    }
}

/// Enumerates the collapsed single-fault universe of a circuit:
///
/// * a stuck-at-0 and stuck-at-1 fault on every node output stem (inputs,
///   gates and flip-flop outputs alike; constants excluded — a stuck constant
///   is indistinguishable from a design change and untestable by definition);
/// * a stuck-at fault on every fanout *branch* whose stem drives two or more
///   pins (a single-fanout branch is fault-equivalent to its stem, the
///   "equivalent pairs of lines" collapsing used in the worked example of
///   §3.6 step 2).
#[must_use]
pub fn enumerate_faults(circuit: &Circuit) -> Vec<Fault> {
    build_universe(circuit, true)
}

/// Enumerates the *uncollapsed* universe: every stem and every branch, even
/// when equivalent. Matches the raw line numbering style of Fig. 3.4.
#[must_use]
pub fn enumerate_faults_uncollapsed(circuit: &Circuit) -> Vec<Fault> {
    build_universe(circuit, false)
}

fn build_universe(circuit: &Circuit, collapse: bool) -> Vec<Fault> {
    let structure = Structure::new(circuit);
    let mut out = Vec::new();
    for id in circuit.node_ids() {
        if matches!(circuit.view(id), NodeView::Const(_)) {
            continue;
        }
        for stuck in [false, true] {
            out.push(Fault::new(Site::Stem(id), stuck));
        }
    }
    for id in circuit.node_ids() {
        for (pin, &src) in circuit.fanins(id).iter().enumerate() {
            if matches!(circuit.view(src), NodeView::Const(_)) {
                continue;
            }
            if collapse && structure.stem_equals_branch(src) {
                continue;
            }
            for stuck in [false, true] {
                out.push(Fault::new(Site::Branch { node: id, pin }, stuck));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_gate() -> Circuit {
        // g = AND(a,b); f1 = OR(g,a); f2 = NOR(g,b): g fans out twice, a and
        // b fan out twice.
        let mut c = Circuit::new();
        let a = c.input("a");
        let b = c.input("b");
        let g = c.and(&[a, b]);
        let f1 = c.or(&[g, a]);
        let f2 = c.nor(&[g, b]);
        c.mark_output("f1", f1);
        c.mark_output("f2", f2);
        c
    }

    #[test]
    fn collapsed_universe_counts() {
        let c = two_gate();
        // Stems: a, b, g, f1, f2 -> 5 * 2 = 10 faults.
        // Branches: a->g, a->f1, b->g, b->f2, g->f1, g->f2 (all stems fan out
        // twice) -> 6 * 2 = 12 faults.
        let faults = enumerate_faults(&c);
        assert_eq!(faults.len(), 22);
    }

    #[test]
    fn collapsing_removes_single_fanout_branches() {
        let mut c = Circuit::new();
        let a = c.input("a");
        let g = c.not(a);
        let h = c.not(g);
        c.mark_output("f", h);
        // Chain: every stem has fanout 1 -> branch faults all collapse.
        let collapsed = enumerate_faults(&c);
        assert_eq!(collapsed.len(), 6); // stems a, g, h
        let full = enumerate_faults_uncollapsed(&c);
        assert_eq!(full.len(), 10); // + branches a->g, g->h
    }

    #[test]
    fn constants_excluded() {
        let mut c = Circuit::new();
        let a = c.input("a");
        let one = c.constant(true);
        let g = c.and(&[a, one]);
        c.mark_output("f", g);
        let faults = enumerate_faults(&c);
        // Stems a and g only; the branch from `one` is skipped, and a's
        // single-fanout branch collapses.
        assert_eq!(faults.len(), 4);
        assert!(faults
            .iter()
            .all(|f| f.site != scal_netlist::Site::Stem(one)));
    }

    #[test]
    fn fault_display() {
        let mut c = Circuit::new();
        let a = c.input("a");
        let f = Fault::new(Site::Stem(a), true);
        assert_eq!(f.to_string(), "stem(n0) s-a-1");
        assert!(f.to_override().value);
    }

    #[test]
    fn describe_uses_line_names() {
        let mut c = Circuit::new();
        let a = c.input("a");
        let b = c.input("b");
        let g = c.and(&[a, b]);
        c.set_name(g, "carry");
        c.mark_output("f", g);
        assert_eq!(Fault::new(Site::Stem(g), false).describe(&c), "carry s-a-0");
        assert_eq!(
            Fault::new(Site::Branch { node: g, pin: 1 }, true).describe(&c),
            "b->carry[1] s-a-1"
        );
        // Unnamed nodes fall back to positional names.
        let mut plain = Circuit::new();
        let x = plain.input("x");
        let h = plain.not(x);
        plain.mark_output("f", h);
        assert_eq!(
            Fault::new(Site::Stem(h), true).describe(&plain),
            format!("n{} s-a-1", h.index())
        );
        // `describe_into` appends the same text, including the positional
        // fallback of a branch whose pin does not exist.
        let mut out = String::from("#");
        Fault::new(Site::Branch { node: g, pin: 0 }, false).describe_into(&c, &mut out);
        Fault::new(Site::Branch { node: h, pin: 5 }, true).describe_into(&plain, &mut out);
        assert_eq!(
            out,
            format!(
                "#a->carry[0] s-a-0{}",
                Fault::new(Site::Branch { node: h, pin: 5 }, true).describe(&plain)
            )
        );
    }

    #[test]
    fn fault_set_classification() {
        let mut c = Circuit::new();
        let a = c.input("a");
        let b = c.input("b");
        let single = FaultSet::from_faults([Fault::new(Site::Stem(a), false)]);
        assert!(single.is_single() && single.is_unidirectional());
        let uni = FaultSet::from_faults([
            Fault::new(Site::Stem(a), true),
            Fault::new(Site::Stem(b), true),
        ]);
        assert!(!uni.is_single() && uni.is_unidirectional());
        let multi = FaultSet::from_faults([
            Fault::new(Site::Stem(a), true),
            Fault::new(Site::Stem(b), false),
        ]);
        assert!(!multi.is_unidirectional());
        assert_eq!(multi.to_overrides().len(), 2);
        assert!(FaultSet::new().is_empty());
    }

    #[test]
    fn fault_set_dedups() {
        let mut c = Circuit::new();
        let a = c.input("a");
        let f = Fault::new(Site::Stem(a), true);
        let mut s = FaultSet::from_faults([f, f]);
        assert_eq!(s.len(), 1);
        s.insert(f);
        assert_eq!(s.len(), 1);
    }
}
