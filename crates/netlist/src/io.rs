//! Format-agnostic netlist I/O: one enum of interchange formats and one
//! `read`/`write` surface over them.
//!
//! Three concrete serializations hide behind [`NetlistFormat`]:
//!
//! * [`NetlistFormat::ScalText`] — the native `scal-netlist v1` text form;
//! * [`NetlistFormat::Verilog`] — a structural Verilog subset (gate
//!   primitives, `scal_dff`/`scal_minority`/`scal_majority` instances,
//!   `assign`s), with exact node/output names carried in
//!   `(* scal_name = "..." *)` attributes;
//! * [`NetlistFormat::Bench`] — ISCAS-85/89-style `.bench`
//!   (`INPUT(..)` / `OUTPUT(..)` / `sig = NAND(..)` / `sig = DFF(..)`),
//!   with fidelity directives in `#@` comments.
//!
//! Each writer is the exact inverse of its reader on every valid
//! [`Circuit`] whose names are neither empty nor start or end with
//! whitespace: `write ∘ read ∘ write == write` bit-for-bit, and the re-read
//! circuit is [`circuit_eq`]-identical. Text and bench names run to the end
//! of a line and are trimmed, so those two formats drop such whitespace and
//! cannot carry an empty name; Verilog quotes names and keeps them all.

use crate::reader::ParseError;
use crate::{bench_fmt, text, verilog, Circuit};
use std::path::Path;

/// A netlist serialization format understood by [`Circuit::read`] and
/// [`Circuit::write`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NetlistFormat {
    /// The native `scal-netlist v1` text format.
    #[default]
    ScalText,
    /// Structural Verilog subset (`.v`).
    Verilog,
    /// ISCAS-85/89-style bench format (`.bench`).
    Bench,
}

impl NetlistFormat {
    /// Stable lower-case name (`"text"`, `"verilog"`, `"bench"`) — the
    /// value carried by the service's `netlist_format` wire field.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            NetlistFormat::ScalText => "text",
            NetlistFormat::Verilog => "verilog",
            NetlistFormat::Bench => "bench",
        }
    }

    /// The format conventionally named by a file extension, if any
    /// (`v`/`sv` → Verilog, `bench` → Bench, `scal`/`txt` → ScalText).
    #[must_use]
    pub fn from_extension(ext: &str) -> Option<NetlistFormat> {
        match ext.to_ascii_lowercase().as_str() {
            "v" | "sv" => Some(NetlistFormat::Verilog),
            "bench" => Some(NetlistFormat::Bench),
            "scal" | "txt" => Some(NetlistFormat::ScalText),
            _ => None,
        }
    }

    /// The format named by `path`'s extension, if any.
    fn of_path(path: &Path) -> Option<NetlistFormat> {
        NetlistFormat::from_extension(path.extension()?.to_str()?)
    }

    /// Guesses the format of `src` from its leading significant content.
    /// Never fails: unrecognizable input defaults to [`NetlistFormat::ScalText`],
    /// whose parser then reports a typed header error.
    #[must_use]
    pub fn sniff(src: &str) -> NetlistFormat {
        for l in src.lines().map(str::trim).filter(|l| !l.is_empty()) {
            if l.starts_with("scal-netlist") {
                return NetlistFormat::ScalText;
            }
            if ["//", "/*", "module", "(*"]
                .iter()
                .any(|p| l.starts_with(p))
            {
                return NetlistFormat::Verilog;
            }
            // Comment syntax shared by ScalText and Bench; Bench writers
            // (ours included) tag theirs, otherwise keep scanning.
            if l.starts_with('#') && !l.contains("bench") {
                continue;
            }
            if l.starts_with('#')
                || l.starts_with("INPUT(")
                || l.starts_with("OUTPUT(")
                || l.contains('=')
            {
                return NetlistFormat::Bench;
            }
            return NetlistFormat::ScalText;
        }
        NetlistFormat::ScalText
    }
}

impl core::fmt::Display for NetlistFormat {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

impl core::str::FromStr for NetlistFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "text" | "scal" => Ok(NetlistFormat::ScalText),
            "verilog" | "v" => Ok(NetlistFormat::Verilog),
            "bench" => Ok(NetlistFormat::Bench),
            other => Err(format!(
                "unknown netlist format {other:?} (want text|verilog|bench)"
            )),
        }
    }
}

/// Errors from the format-agnostic I/O surface.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum IoError {
    /// A reader rejected the input.
    Parse {
        /// The format being read.
        format: NetlistFormat,
        /// Where and why.
        error: ParseError,
    },
    /// [`Circuit::write_path`] could not infer a format from the extension.
    UnknownFormat {
        /// The offending path.
        path: String,
    },
    /// A filesystem read or write failed.
    File {
        /// The offending path.
        path: String,
        /// The underlying I/O error, rendered.
        message: String,
    },
}

impl core::fmt::Display for IoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            IoError::Parse { format, error } => write!(f, "{format}: {error}"),
            IoError::UnknownFormat { path } => {
                write!(f, "cannot infer a netlist format from {path:?}")
            }
            IoError::File { path, message } => write!(f, "{path}: {message}"),
        }
    }
}

impl std::error::Error for IoError {}

impl Circuit {
    /// Parses `src` as the given format.
    ///
    /// # Errors
    ///
    /// Returns [`IoError::Parse`] with the reader's error.
    pub fn read(src: &str, format: NetlistFormat) -> Result<Circuit, IoError> {
        match format {
            NetlistFormat::ScalText => text::parse(src),
            NetlistFormat::Verilog => verilog::parse(src),
            NetlistFormat::Bench => bench_fmt::parse(src),
        }
        .map_err(|error| IoError::Parse { format, error })
    }

    /// Serializes the circuit in the given format.
    #[must_use]
    pub fn write_string(&self, format: NetlistFormat) -> String {
        match format {
            NetlistFormat::ScalText => text::emit(self),
            NetlistFormat::Verilog => verilog::emit(self),
            NetlistFormat::Bench => bench_fmt::emit(self),
        }
    }

    /// Serializes the circuit in the given format into `w`.
    ///
    /// # Errors
    ///
    /// Propagates write errors from `w`.
    pub fn write<W: std::io::Write>(
        &self,
        w: &mut W,
        format: NetlistFormat,
    ) -> std::io::Result<()> {
        w.write_all(self.write_string(format).as_bytes())
    }

    /// Reads a netlist file, inferring the format from the extension when it
    /// is conventional and from the content otherwise.
    ///
    /// # Errors
    ///
    /// [`IoError::File`] on filesystem failure, else the format's parse
    /// error.
    pub fn read_path(path: impl AsRef<Path>) -> Result<Circuit, IoError> {
        let path = path.as_ref();
        let src = std::fs::read_to_string(path).map_err(|e| file_error(path, &e))?;
        let format = NetlistFormat::of_path(path).unwrap_or_else(|| NetlistFormat::sniff(&src));
        Circuit::read(&src, format)
    }

    /// Writes the circuit to `path` in the format named by its extension.
    ///
    /// # Errors
    ///
    /// [`IoError::UnknownFormat`] when the extension names no format,
    /// [`IoError::File`] on filesystem failure.
    pub fn write_path(&self, path: impl AsRef<Path>) -> Result<(), IoError> {
        let path = path.as_ref();
        let format = NetlistFormat::of_path(path).ok_or_else(|| IoError::UnknownFormat {
            path: path.display().to_string(),
        })?;
        std::fs::write(path, self.write_string(format)).map_err(|e| file_error(path, &e))
    }
}

fn file_error(path: &Path, e: &std::io::Error) -> IoError {
    IoError::File {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

/// Structural equality of two circuits: node-by-node kinds, fanins and
/// names, input/flip-flop order, and output declarations (names included).
/// Returns a description of the first difference.
///
/// This is the round-trip oracle the interchange tests assert with (the
/// safety-net `assert_verilog_eq` pattern): it is strictly stronger than
/// behavioural equivalence and strictly weaker than textual identity of a
/// particular serialization.
///
/// # Errors
///
/// Returns a human-readable description of the first structural difference.
pub fn circuit_eq(a: &Circuit, b: &Circuit) -> Result<(), String> {
    use core::fmt::{Arguments, Debug};
    fn same<T: PartialEq + Debug>(what: Arguments<'_>, x: T, y: T) -> Result<(), String> {
        match x == y {
            true => Ok(()),
            false => Err(format!("{what} differ: {x:?} vs {y:?}")),
        }
    }
    same(format_args!("node counts"), a.len(), b.len())?;
    for id in a.node_ids() {
        same(format_args!("node {id}: kinds"), a.view(id), b.view(id))?;
        same(
            format_args!("node {id}: fanins"),
            a.fanins(id),
            b.fanins(id),
        )?;
        same(format_args!("node {id}: names"), a.name(id), b.name(id))?;
    }
    same(format_args!("input orders"), a.inputs(), b.inputs())?;
    same(format_args!("flip-flop orders"), a.dffs(), b.dffs())?;
    same(
        format_args!("output counts"),
        a.outputs().len(),
        b.outputs().len(),
    )?;
    for (k, (oa, ob)) in a.outputs().iter().zip(b.outputs()).enumerate() {
        same(format_args!("output {k} declarations"), oa, ob)?;
    }
    Ok(())
}

/// Panicking form of [`circuit_eq`], for tests.
///
/// # Panics
///
/// Panics with the first structural difference.
pub fn assert_circuit_eq(a: &Circuit, b: &Circuit) {
    if let Err(e) = circuit_eq(a, b) {
        panic!("circuits differ: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GateKind;

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
        c.mark_output("raw", g);
        c
    }

    #[test]
    fn every_format_round_trips_the_sample() {
        let c = sample();
        for format in [
            NetlistFormat::ScalText,
            NetlistFormat::Verilog,
            NetlistFormat::Bench,
        ] {
            let s = c.write_string(format);
            let back = Circuit::read(&s, format).unwrap_or_else(|e| panic!("{format}: {e}\n{s}"));
            assert_circuit_eq(&c, &back);
            assert_eq!(back.write_string(format), s, "{format} not bit-stable");
        }
    }

    #[test]
    fn sniffing_recognizes_all_three_writers() {
        let c = sample();
        for format in [
            NetlistFormat::ScalText,
            NetlistFormat::Verilog,
            NetlistFormat::Bench,
        ] {
            assert_eq!(NetlistFormat::sniff(&c.write_string(format)), format);
        }
        assert_eq!(NetlistFormat::sniff(""), NetlistFormat::ScalText);
        assert_eq!(NetlistFormat::sniff("INPUT(a)\n"), NetlistFormat::Bench);
    }

    #[test]
    fn extension_and_name_round_trip() {
        for format in [
            NetlistFormat::ScalText,
            NetlistFormat::Verilog,
            NetlistFormat::Bench,
        ] {
            assert_eq!(format.name().parse::<NetlistFormat>(), Ok(format));
        }
        assert_eq!(
            NetlistFormat::from_extension("V"),
            Some(NetlistFormat::Verilog)
        );
        assert_eq!(
            NetlistFormat::from_extension("bench"),
            Some(NetlistFormat::Bench)
        );
        assert_eq!(NetlistFormat::from_extension("json"), None);
        assert!("frob".parse::<NetlistFormat>().is_err());
    }

    #[test]
    fn path_io_round_trips_with_autodetection() {
        let c = sample();
        let dir = std::env::temp_dir();
        for (ext, format) in [
            ("v", NetlistFormat::Verilog),
            ("bench", NetlistFormat::Bench),
            ("scal", NetlistFormat::ScalText),
        ] {
            let path = dir.join(format!("scal_io_test_{}.{ext}", std::process::id()));
            c.write_path(&path).unwrap();
            let back = Circuit::read_path(&path).unwrap();
            assert_circuit_eq(&c, &back);
            assert_eq!(back.write_string(format), c.write_string(format));
            let _ = std::fs::remove_file(&path);
        }
        // Unknown extension: write refuses, read falls back to sniffing.
        let odd = dir.join(format!("scal_io_test_{}.net", std::process::id()));
        assert!(matches!(
            c.write_path(&odd),
            Err(IoError::UnknownFormat { .. })
        ));
        std::fs::write(&odd, c.write_string(NetlistFormat::Verilog)).unwrap();
        let back = Circuit::read_path(&odd).unwrap();
        assert_circuit_eq(&c, &back);
        let _ = std::fs::remove_file(&odd);
    }

    #[test]
    fn circuit_eq_reports_differences() {
        let c = sample();
        let mut d = sample();
        d.set_name(d.outputs()[0].node, "renamed");
        assert!(circuit_eq(&c, &c).is_ok());
        let err = circuit_eq(&c, &d).unwrap_err();
        assert!(err.contains("names differ"), "{err}");
        let mut e = sample();
        e.mark_output("extra", e.inputs()[0]);
        assert!(circuit_eq(&c, &e).unwrap_err().contains("output counts"));
        let mut f = Circuit::new();
        let x = f.input("x");
        let y = f.input("y");
        let g = f.gate(GateKind::And, &[x, y]);
        f.mark_output("q", g);
        assert!(circuit_eq(&c, &f).unwrap_err().contains("node counts"));
    }

    #[test]
    fn write_into_io_writer_matches_write_string() {
        let c = sample();
        let mut buf = Vec::new();
        c.write(&mut buf, NetlistFormat::Bench).unwrap();
        assert_eq!(buf, c.write_string(NetlistFormat::Bench).into_bytes());
    }
}
