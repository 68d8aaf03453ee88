//! Scale of the netlist readers: forward references resolve in linear
//! time, so a file that lists its statements in reverse order parses as
//! fast as one in order. A quadratic resolver takes minutes on these
//! 50,000-statement chains even in release builds.

use scal::netlist::{Circuit, NetlistFormat};
use std::fmt::Write as _;

#[test]
fn reverse_ordered_chains_of_fifty_thousand_statements_parse() {
    const N: usize = 50_000;
    let mut bench = format!("OUTPUT(s{N})\n");
    let mut v = format!("module chain (s0, y);\n  output y;\n  assign y = s{N};\n");
    for k in (1..=N).rev() {
        let _ = writeln!(bench, "s{k} = NOT(s{})", k - 1);
        let _ = writeln!(v, "  wire s{k};\n  not (s{k}, s{});", k - 1);
    }
    bench.push_str("INPUT(s0)\n");
    v.push_str("  input s0;\nendmodule\n");
    for (format, src) in [(NetlistFormat::Bench, bench), (NetlistFormat::Verilog, v)] {
        let c = Circuit::read(&src, format).unwrap();
        assert_eq!(c.len(), N + 1, "{format}");
        // The input comes first and the chain follows it in order.
        for k in 1..=N {
            let id = c.node_id(k).unwrap();
            assert_eq!(c.fanins(id), &[c.node_id(k - 1).unwrap()]);
            assert_eq!(c.name(id), Some(format!("s{k}").as_str()));
        }
        assert_eq!(c.outputs()[0].node.index(), N);
    }
}
