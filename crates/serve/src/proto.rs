//! The line-delimited JSON wire protocol: request parsing, request
//! serialization (the client side), and response-frame construction.
//!
//! Every request is one JSON object on one line; every response is a stream
//! of JSON objects, one per line, each carrying a `"frame"` discriminator.
//! The schema is pinned by `tests/wire_schema.rs` and documented in
//! DESIGN.md ("Campaign service").

use scal_engine::EvalMode;
use scal_faults::Fault;
use scal_netlist::{Circuit, NetlistFormat, Site};
use scal_obs::json::{self, JsonArray, JsonObject, JsonValue};
use scal_obs::{CampaignEvent, CoverageMap};
use scal_seq::{ScalMachine, SeqBackend};
use scal_system::campaign::CpuUnit;

/// Protocol revision spoken by this build. Requests may carry a `"v"` field;
/// a mismatch is rejected so old clients fail loudly instead of silently
/// misparsing frames.
pub const PROTOCOL_VERSION: u64 = 1;

/// Priorities span `0..=MAX_PRIORITY`; higher runs sooner.
pub const MAX_PRIORITY: u64 = 9;

/// Default priority for requests that do not set one.
pub const DEFAULT_PRIORITY: u8 = 4;

/// Smallest accepted CPU period budget. The CPU campaign's golden phase
/// treats a budget too small for a *fault-free* workload as a broken
/// workload (it panics), so the service refuses budgets anywhere near that
/// regime; the default suite needs well under a thousand periods per run.
pub const MIN_CPU_BUDGET: u64 = 10_000;

/// Largest accepted CPU period budget (runaway-request guard).
pub const MAX_CPU_BUDGET: u64 = 100_000_000;

/// Largest accepted driven-word sequence (runaway-request guard).
pub const MAX_SEQ_WORDS: usize = 1 << 16;

/// A malformed or unacceptable request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// Stable machine-readable code (`"bad_json"`, `"bad_request"`,
    /// `"bad_netlist"`, `"bad_faults"`, `"bad_machine"`, `"bad_words"`,
    /// `"bad_version"`).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ProtoError {
    fn new(code: &'static str, message: impl Into<String>) -> Self {
        ProtoError {
            code,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for ProtoError {}

/// Which faults a pair request simulates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultSpec {
    /// The circuit's whole collapsed fault universe (the default).
    All,
    /// An explicit fault list, simulated in exactly this order.
    List(Vec<Fault>),
}

impl FaultSpec {
    /// Resolves the spec against `circuit` into the concrete fault list.
    #[must_use]
    pub fn resolve(&self, circuit: &Circuit) -> Vec<Fault> {
        match self {
            FaultSpec::All => scal_faults::enumerate_faults(circuit),
            FaultSpec::List(faults) => faults.clone(),
        }
    }
}

/// A fully validated campaign specification carried by a submit request.
#[derive(Debug, Clone)]
pub enum JobKind {
    /// An alternating-pair campaign over a combinational circuit.
    Pair {
        /// The circuit under test.
        circuit: Circuit,
        /// Which faults to simulate.
        faults: FaultSpec,
        /// Classic fault dropping.
        drop_after_detection: bool,
        /// The v1 `eval_mode` field (`"full"` or `"cone"`, default
        /// `"cone"`). Accepted, validated and round-tripped on the wire,
        /// but ignored by the job: the engine picks its faulty-sweep
        /// evaluation itself, so both values return the same results.
        eval_mode: EvalMode,
        /// Run on the scalar differential oracle instead of the packed
        /// engine.
        scalar: bool,
    },
    /// A sequential campaign driving a SCAL machine with a word sequence.
    Seq {
        /// The machine under test.
        machine: ScalMachine,
        /// The driven information words (external inputs, φ excluded).
        words: Vec<Vec<bool>>,
        /// Simulation backend.
        backend: SeqBackend,
    },
    /// A datapath campaign over one CPU unit's workload suite.
    Cpu {
        /// Which datapath unit to inject faults into.
        unit: CpuUnit,
        /// Per-run period budget.
        budget: u64,
        /// Workload-name filter over the default suite (`None` = all).
        workloads: Option<Vec<String>>,
    },
}

impl JobKind {
    /// Stable request-kind name (`"pair"`, `"seq"`, `"cpu"`).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            JobKind::Pair { .. } => "pair",
            JobKind::Seq { .. } => "seq",
            JobKind::Cpu { .. } => "cpu",
        }
    }
}

/// One submit request: the campaign plus its scheduling envelope.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// What to run.
    pub kind: JobKind,
    /// Scheduling priority, `0..=9`; higher runs sooner.
    pub priority: u8,
    /// Deadline armed when the job *starts executing*; on expiry the job's
    /// cancel token fires and the result reports a cancelled prefix.
    pub timeout_ms: Option<u64>,
    /// Worker threads for the campaign itself (`0` = 1); the server clamps
    /// to its per-job cap.
    pub threads: usize,
    /// Stream per-event frames (`false` = result frame only).
    pub stream: bool,
    /// Compile-time fault collapsing (`None` = backend default: on).
    /// Honored by every kind; the seq graph oracle backend ignores it.
    /// Omitted from the wire when `None`, so v1 request lines are
    /// byte-identical to pre-collapse builds.
    pub fault_collapse: Option<bool>,
    /// Serialization of the `"netlist"` field (`"text"`, `"verilog"`,
    /// `"bench"`); omitted on the wire when it is the text default, so v1
    /// request lines are byte-identical to pre-format builds.
    pub netlist_format: NetlistFormat,
}

/// One parsed request line.
#[derive(Debug, Clone)]
pub enum Request {
    /// Run a campaign.
    Submit(Box<JobSpec>),
    /// Cancel a queued or running job by id.
    Cancel {
        /// The id from the job's `accepted` frame.
        id: u64,
    },
    /// Report scheduler counters.
    Status,
    /// Dump the flight recorder's recent lifecycle events.
    Dump,
    /// Drain and stop the server.
    Shutdown,
}

fn as_u64(v: &JsonValue) -> Option<u64> {
    let n = v.as_f64()?;
    if n.fract() == 0.0 && (0.0..=9_007_199_254_740_992.0).contains(&n) {
        Some(n as u64)
    } else {
        None
    }
}

fn as_bool(v: &JsonValue) -> Option<bool> {
    match v {
        JsonValue::Bool(b) => Some(*b),
        _ => None,
    }
}

fn field_u64(obj: &JsonValue, key: &str) -> Result<Option<u64>, ProtoError> {
    match obj.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(v) => as_u64(v)
            .map(Some)
            .ok_or_else(|| ProtoError::new("bad_request", format!("{key:?} must be an integer"))),
    }
}

fn field_bool(obj: &JsonValue, key: &str, default: bool) -> Result<bool, ProtoError> {
    match obj.get(key) {
        None | Some(JsonValue::Null) => Ok(default),
        Some(v) => as_bool(v)
            .ok_or_else(|| ProtoError::new("bad_request", format!("{key:?} must be a boolean"))),
    }
}

fn field_str<'a>(obj: &'a JsonValue, key: &str) -> Result<Option<&'a str>, ProtoError> {
    match obj.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| ProtoError::new("bad_request", format!("{key:?} must be a string"))),
    }
}

/// Decodes one driven word: an array of `0`/`1` numbers or booleans.
fn parse_word(v: &JsonValue) -> Result<Vec<bool>, ProtoError> {
    let items = v
        .as_array()
        .ok_or_else(|| ProtoError::new("bad_words", "each word must be an array"))?;
    items
        .iter()
        .map(|b| match b {
            JsonValue::Bool(x) => Ok(*x),
            JsonValue::Num(n) if *n == 0.0 => Ok(false),
            JsonValue::Num(n) if *n == 1.0 => Ok(true),
            _ => Err(ProtoError::new(
                "bad_words",
                "word bits must be 0, 1, true or false",
            )),
        })
        .collect()
}

/// Decodes a fault-list entry against `circuit`, validating that the node
/// exists and (for branches) that the pin is a real fanin position.
fn parse_fault(v: &JsonValue, circuit: &Circuit) -> Result<Fault, ProtoError> {
    let node_of = |idx: u64| {
        usize::try_from(idx)
            .ok()
            .and_then(|i| circuit.node_id(i))
            .ok_or_else(|| ProtoError::new("bad_faults", format!("no node with index {idx}")))
    };
    let stuck = as_bool(
        v.get("stuck")
            .ok_or_else(|| ProtoError::new("bad_faults", "fault entry missing \"stuck\""))?,
    )
    .ok_or_else(|| ProtoError::new("bad_faults", "\"stuck\" must be a boolean"))?;
    let node = field_u64(v, "node")?
        .ok_or_else(|| ProtoError::new("bad_faults", "fault entry missing \"node\""))?;
    let site = match field_str(v, "site")? {
        Some("stem") => Site::Stem(node_of(node)?),
        Some("branch") => {
            let node = node_of(node)?;
            let pin = field_u64(v, "pin")?
                .ok_or_else(|| ProtoError::new("bad_faults", "branch fault missing \"pin\""))?;
            let pin = usize::try_from(pin)
                .map_err(|_| ProtoError::new("bad_faults", "\"pin\" out of range"))?;
            if pin >= circuit.fanins(node).len() {
                return Err(ProtoError::new(
                    "bad_faults",
                    format!("node {node} has no fanin pin {pin}"),
                ));
            }
            Site::Branch { node, pin }
        }
        _ => {
            return Err(ProtoError::new(
                "bad_faults",
                "fault \"site\" must be \"stem\" or \"branch\"",
            ))
        }
    };
    Ok(Fault::new(site, stuck))
}

fn parse_netlist_format(obj: &JsonValue) -> Result<NetlistFormat, ProtoError> {
    match field_str(obj, "netlist_format")? {
        None => Ok(NetlistFormat::ScalText),
        Some(s) => s
            .parse()
            .map_err(|e: String| ProtoError::new("bad_request", e)),
    }
}

fn parse_netlist(obj: &JsonValue, format: NetlistFormat) -> Result<Circuit, ProtoError> {
    let text = field_str(obj, "netlist")?
        .ok_or_else(|| ProtoError::new("bad_request", "submit missing \"netlist\""))?;
    let circuit = Circuit::read(text, format)
        .map_err(|e| ProtoError::new("bad_netlist", format!("netlist parse: {e}")))?;
    circuit
        .validate()
        .map_err(|e| ProtoError::new("bad_netlist", format!("netlist invalid: {e}")))?;
    Ok(circuit)
}

fn parse_eval_mode(obj: &JsonValue) -> Result<EvalMode, ProtoError> {
    match field_str(obj, "eval_mode")? {
        None => Ok(EvalMode::default()),
        Some(s) => s
            .parse()
            .map_err(|e| ProtoError::new("bad_request", format!("{e:?}"))),
    }
}

fn parse_submit(obj: &JsonValue) -> Result<JobSpec, ProtoError> {
    let netlist_format = parse_netlist_format(obj)?;
    let kind = match field_str(obj, "kind")? {
        Some("pair") => {
            let circuit = parse_netlist(obj, netlist_format)?;
            let faults = match obj.get("faults") {
                None | Some(JsonValue::Null) | Some(JsonValue::Str(_)) => {
                    match field_str(obj, "faults")? {
                        None | Some("all") => FaultSpec::All,
                        Some(other) => {
                            return Err(ProtoError::new(
                                "bad_faults",
                                format!("\"faults\" must be \"all\" or a list, got {other:?}"),
                            ))
                        }
                    }
                }
                Some(JsonValue::Array(items)) => FaultSpec::List(
                    items
                        .iter()
                        .map(|v| parse_fault(v, &circuit))
                        .collect::<Result<_, _>>()?,
                ),
                Some(_) => {
                    return Err(ProtoError::new(
                        "bad_faults",
                        "\"faults\" must be \"all\" or a list",
                    ))
                }
            };
            let scalar = match field_str(obj, "backend")? {
                None | Some("engine") => false,
                Some("scalar") => true,
                Some(other) => {
                    return Err(ProtoError::new(
                        "bad_request",
                        format!("pair \"backend\" must be \"engine\" or \"scalar\", got {other:?}"),
                    ))
                }
            };
            JobKind::Pair {
                circuit,
                faults,
                drop_after_detection: field_bool(obj, "drop", false)?,
                eval_mode: parse_eval_mode(obj)?,
                scalar,
            }
        }
        Some("seq") => {
            let circuit = parse_netlist(obj, netlist_format)?;
            let inputs = circuit.inputs().len();
            if inputs == 0 {
                return Err(ProtoError::new(
                    "bad_machine",
                    "a SCAL machine needs at least the φ input",
                ));
            }
            let outputs = circuit.outputs().len();
            let z_count = field_u64(obj, "z")?
                .ok_or_else(|| ProtoError::new("bad_machine", "seq missing \"z\""))?;
            let y_count = field_u64(obj, "y")?
                .ok_or_else(|| ProtoError::new("bad_machine", "seq missing \"y\""))?;
            let (z_count, y_count) = (z_count as usize, y_count as usize);
            if z_count + y_count > outputs {
                return Err(ProtoError::new(
                    "bad_machine",
                    format!(
                        "z + y = {} exceeds the {outputs} outputs",
                        z_count + y_count
                    ),
                ));
            }
            let code_pair = match obj.get("code_pair") {
                None | Some(JsonValue::Null) => None,
                Some(JsonValue::Array(items)) if items.len() == 2 => {
                    let f = as_u64(&items[0]).map(|v| v as usize);
                    let g = as_u64(&items[1]).map(|v| v as usize);
                    match (f, g) {
                        (Some(f), Some(g)) if f < outputs && g < outputs => Some((f, g)),
                        _ => {
                            return Err(ProtoError::new(
                                "bad_machine",
                                "\"code_pair\" indices must name outputs",
                            ))
                        }
                    }
                }
                Some(_) => {
                    return Err(ProtoError::new(
                        "bad_machine",
                        "\"code_pair\" must be a two-element array",
                    ))
                }
            };
            let words_v = obj
                .get("words")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| ProtoError::new("bad_words", "seq missing \"words\" array"))?;
            if words_v.len() > MAX_SEQ_WORDS {
                return Err(ProtoError::new(
                    "bad_words",
                    format!("at most {MAX_SEQ_WORDS} driven words per request"),
                ));
            }
            let words: Vec<Vec<bool>> = words_v.iter().map(parse_word).collect::<Result<_, _>>()?;
            // The campaign would reject a driven word of the wrong arity
            // too, but only once the job runs; checking here answers with
            // the `bad_words` code at submit time.
            if let Some(w) = words.iter().find(|w| w.len() != inputs - 1) {
                return Err(ProtoError::new(
                    "bad_words",
                    format!(
                        "words must have width {} (external inputs), got {}",
                        inputs - 1,
                        w.len()
                    ),
                ));
            }
            let backend = match field_str(obj, "seq_backend")? {
                None => SeqBackend::default(),
                Some(s) => s
                    .parse()
                    .map_err(|e| ProtoError::new("bad_request", format!("{e}")))?,
            };
            let design = field_str(obj, "design")?.unwrap_or("wire").to_owned();
            JobKind::Seq {
                machine: ScalMachine {
                    circuit,
                    z_count,
                    y_count,
                    code_pair,
                    design,
                },
                words,
                backend,
            }
        }
        Some("cpu") => {
            let unit = match field_str(obj, "unit")? {
                Some("adder") => CpuUnit::Adder,
                Some("logic") => CpuUnit::Logic,
                other => {
                    return Err(ProtoError::new(
                        "bad_request",
                        format!("cpu \"unit\" must be \"adder\" or \"logic\", got {other:?}"),
                    ))
                }
            };
            let budget = field_u64(obj, "budget")?.unwrap_or(1_000_000);
            if !(MIN_CPU_BUDGET..=MAX_CPU_BUDGET).contains(&budget) {
                return Err(ProtoError::new(
                    "bad_request",
                    format!("\"budget\" must be in {MIN_CPU_BUDGET}..={MAX_CPU_BUDGET}"),
                ));
            }
            let workloads = match obj.get("workloads") {
                None | Some(JsonValue::Null) => None,
                Some(JsonValue::Array(items)) => {
                    let names: Vec<String> = items
                        .iter()
                        .map(|v| {
                            v.as_str().map(str::to_owned).ok_or_else(|| {
                                ProtoError::new("bad_request", "workload names must be strings")
                            })
                        })
                        .collect::<Result<_, _>>()?;
                    let known = scal_system::campaign::default_workloads();
                    for n in &names {
                        if !known.iter().any(|w| w.name == n) {
                            return Err(ProtoError::new(
                                "bad_request",
                                format!("unknown workload {n:?}"),
                            ));
                        }
                    }
                    if names.is_empty() {
                        return Err(ProtoError::new(
                            "bad_request",
                            "\"workloads\" must not be empty",
                        ));
                    }
                    Some(names)
                }
                Some(_) => {
                    return Err(ProtoError::new(
                        "bad_request",
                        "\"workloads\" must be an array of names",
                    ))
                }
            };
            JobKind::Cpu {
                unit,
                budget,
                workloads,
            }
        }
        other => {
            return Err(ProtoError::new(
                "bad_request",
                format!("\"kind\" must be \"pair\", \"seq\" or \"cpu\", got {other:?}"),
            ))
        }
    };
    let priority = field_u64(obj, "priority")?.unwrap_or(u64::from(DEFAULT_PRIORITY));
    if priority > MAX_PRIORITY {
        return Err(ProtoError::new(
            "bad_request",
            format!("\"priority\" must be 0..={MAX_PRIORITY}"),
        ));
    }
    let fault_collapse = match obj.get("fault_collapse") {
        None | Some(JsonValue::Null) => None,
        Some(v) => Some(as_bool(v).ok_or_else(|| {
            ProtoError::new("bad_request", "\"fault_collapse\" must be a boolean")
        })?),
    };
    Ok(JobSpec {
        kind,
        priority: priority as u8,
        timeout_ms: field_u64(obj, "timeout_ms")?,
        threads: field_u64(obj, "threads")?.unwrap_or(0) as usize,
        stream: field_bool(obj, "stream", true)?,
        fault_collapse,
        netlist_format,
    })
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtoError`] naming what is wrong; the server turns it
    /// into an `error` frame.
    pub fn parse(line: &str) -> Result<Request, ProtoError> {
        let obj = json::parse(line).map_err(|e| ProtoError::new("bad_json", e))?;
        if let Some(v) = field_u64(&obj, "v")? {
            if v != PROTOCOL_VERSION {
                return Err(ProtoError::new(
                    "bad_version",
                    format!("protocol v{v} not supported (server speaks v{PROTOCOL_VERSION})"),
                ));
            }
        }
        match field_str(&obj, "cmd")? {
            Some("submit") => Ok(Request::Submit(Box::new(parse_submit(&obj)?))),
            Some("cancel") => {
                let id = field_u64(&obj, "id")?
                    .ok_or_else(|| ProtoError::new("bad_request", "cancel missing \"id\""))?;
                Ok(Request::Cancel { id })
            }
            Some("status") => Ok(Request::Status),
            Some("dump") => Ok(Request::Dump),
            Some("shutdown") => Ok(Request::Shutdown),
            other => Err(ProtoError::new(
                "bad_request",
                format!("\"cmd\" must be \"submit\", \"cancel\", \"status\", \"dump\" or \"shutdown\", got {other:?}"),
            )),
        }
    }
}

/// Appends a driven word list as a JSON array of arrays of 0/1 digits.
fn write_words(out: &mut String, words: &[Vec<bool>]) {
    let mut arr = JsonArray::within(out);
    for w in words {
        let mut bits = JsonArray::within(arr.value());
        for &b in w {
            bits.num(u64::from(b));
        }
        bits.finish();
    }
    arr.finish();
}

impl JobSpec {
    /// Serializes the spec as one submit request line (no trailing newline)
    /// — the client-side inverse of [`Request::parse`].
    #[must_use]
    pub fn to_request_line(&self) -> String {
        let mut o = JsonObject::new();
        o.str("cmd", "submit");
        o.num("v", PROTOCOL_VERSION);
        o.str("kind", self.kind.name());
        o.num("priority", u64::from(self.priority));
        if let Some(ms) = self.timeout_ms {
            o.num("timeout_ms", ms);
        }
        o.num("threads", self.threads as u64);
        o.bool("stream", self.stream);
        if let Some(fc) = self.fault_collapse {
            o.bool("fault_collapse", fc);
        }
        match &self.kind {
            JobKind::Pair {
                circuit,
                faults,
                drop_after_detection,
                eval_mode,
                scalar,
            } => {
                if self.netlist_format != NetlistFormat::ScalText {
                    o.str("netlist_format", self.netlist_format.name());
                }
                o.str("netlist", &circuit.write_string(self.netlist_format));
                match faults {
                    FaultSpec::All => o.str("faults", "all"),
                    FaultSpec::List(list) => {
                        let mut arr = o.array("faults");
                        for f in list {
                            let mut fo = arr.object();
                            match f.site {
                                Site::Stem(n) => {
                                    fo.str("site", "stem");
                                    fo.num("node", n.index() as u64);
                                }
                                Site::Branch { node, pin } => {
                                    fo.str("site", "branch");
                                    fo.num("node", node.index() as u64);
                                    fo.num("pin", pin as u64);
                                }
                            }
                            fo.bool("stuck", f.stuck);
                            fo.finish();
                        }
                        arr.finish();
                    }
                }
                o.bool("drop", *drop_after_detection);
                o.str("eval_mode", eval_mode.name());
                o.str("backend", if *scalar { "scalar" } else { "engine" });
            }
            JobKind::Seq {
                machine,
                words,
                backend,
            } => {
                if self.netlist_format != NetlistFormat::ScalText {
                    o.str("netlist_format", self.netlist_format.name());
                }
                o.str(
                    "netlist",
                    &machine.circuit.write_string(self.netlist_format),
                );
                o.num("z", machine.z_count as u64);
                o.num("y", machine.y_count as u64);
                if let Some((f, g)) = machine.code_pair {
                    let mut pair = o.array("code_pair");
                    pair.num(f as u64);
                    pair.num(g as u64);
                    pair.finish();
                }
                o.str("design", &machine.design);
                write_words(o.value("words"), words);
                o.str("seq_backend", backend.name());
            }
            JobKind::Cpu {
                unit,
                budget,
                workloads,
            } => {
                o.str(
                    "unit",
                    match unit {
                        CpuUnit::Adder => "adder",
                        CpuUnit::Logic => "logic",
                    },
                );
                o.num("budget", *budget);
                if let Some(names) = workloads {
                    let mut arr = o.array("workloads");
                    for n in names {
                        arr.str(n);
                    }
                    arr.finish();
                }
            }
        }
        o.finish()
    }
}

/// `{"frame":"accepted",...}` — the job was queued under `id`, traced as
/// `trace` in every subsequent frame, flight-recorder entry, and log line.
#[must_use]
pub fn frame_accepted(id: u64, trace: u64, kind: &str, priority: u8, queued: usize) -> String {
    let mut o = JsonObject::new();
    o.str("frame", "accepted");
    o.num("id", id);
    o.num("trace", trace);
    o.str("kind", kind);
    o.num("priority", u64::from(priority));
    o.num("queued", queued as u64);
    o.finish()
}

/// `{"frame":"event",...}` — one campaign event, written in place into an
/// envelope carrying the job's id and trace.
#[must_use]
pub fn frame_event(id: u64, trace: u64, event: &CampaignEvent) -> String {
    let mut out = String::new();
    write_frame_event(&mut out, id, trace, event);
    out
}

/// Appends [`frame_event`]'s text to `out` (no newline).
pub fn write_frame_event(out: &mut String, id: u64, trace: u64, event: &CampaignEvent) {
    let mut o = JsonObject::within(out);
    o.str("frame", "event");
    o.num("id", id);
    o.num("trace", trace);
    event.write_json(o.value("event"));
    o.finish();
}

/// `{"frame":"result",...}` — the final summary. `report` and `coverage`
/// are deterministic (bit-identical to a local run); `micros` carries the
/// only wall-clock measurement and is a separate field so consumers can
/// strip it.
#[must_use]
pub fn frame_result(
    id: u64,
    trace: u64,
    report: &str,
    coverage: &CoverageMap,
    micros: u64,
) -> String {
    let mut o = JsonObject::new();
    o.str("frame", "result");
    o.num("id", id);
    o.num("trace", trace);
    o.raw("report", report);
    coverage.write_json(o.value("coverage"));
    o.num("micros", micros);
    o.finish()
}

/// `{"frame":"error",...}` — the request (or job `id`, traced as `trace`)
/// failed. Request-level errors (malformed line, full queue) have neither
/// id nor trace.
#[must_use]
pub fn frame_error(id: Option<u64>, trace: Option<u64>, code: &str, message: &str) -> String {
    let mut o = JsonObject::new();
    o.str("frame", "error");
    if let Some(id) = id {
        o.num("id", id);
    }
    if let Some(trace) = trace {
        o.num("trace", trace);
    }
    o.str("code", code);
    o.str("message", message);
    o.finish()
}

/// `{"frame":"cancel_ack",...}` — reply to a cancel request. `found` is
/// `false` when the id names no queued or running job (already finished,
/// or never existed).
#[must_use]
pub fn frame_cancel_ack(id: u64, found: bool) -> String {
    let mut o = JsonObject::new();
    o.str("frame", "cancel_ack");
    o.num("id", id);
    o.bool("found", found);
    o.finish()
}

/// Everything a `status` frame reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatusInfo {
    /// Worker-pool size.
    pub workers: usize,
    /// Jobs waiting in the queue.
    pub queued: usize,
    /// Jobs currently executing.
    pub running: usize,
    /// Jobs fully processed (result or error frame sent).
    pub done: u64,
    /// `true` once the server is draining.
    pub shutting_down: bool,
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// Queue depth per priority `0..=9` (index = priority).
    pub queue_depths: [u64; 10],
    /// Cumulative jobs accepted.
    pub jobs_accepted: u64,
    /// Cumulative jobs finished un-cancelled.
    pub jobs_finished: u64,
    /// Cumulative jobs cancelled by request or client death.
    pub jobs_cancelled: u64,
    /// Cumulative jobs cancelled by their deadline.
    pub jobs_timed_out: u64,
    /// Cumulative jobs that panicked (isolated, reported as errors).
    pub jobs_panicked: u64,
}

/// `{"frame":"status",...}` — scheduler counters. The first five fields
/// predate telemetry and keep their order, so old clients keep parsing.
#[must_use]
pub fn frame_status(info: &StatusInfo) -> String {
    let mut o = JsonObject::new();
    o.str("frame", "status");
    o.num("workers", info.workers as u64);
    o.num("queued", info.queued as u64);
    o.num("running", info.running as u64);
    o.num("done", info.done);
    o.bool("shutting_down", info.shutting_down);
    o.num("uptime_ms", info.uptime_ms);
    let mut depths = o.array("queue_depths");
    for &d in &info.queue_depths {
        depths.num(d);
    }
    depths.finish();
    let mut jobs = o.object("jobs");
    jobs.num("accepted", info.jobs_accepted);
    jobs.num("finished", info.jobs_finished);
    jobs.num("cancelled", info.jobs_cancelled);
    jobs.num("timed_out", info.jobs_timed_out);
    jobs.num("panicked", info.jobs_panicked);
    jobs.finish();
    o.finish()
}

/// `{"frame":"dump",...}` — the flight recorder's surviving lifecycle
/// events, oldest → newest, each already a JSON object line.
#[must_use]
pub fn frame_dump(events: &[String]) -> String {
    let mut o = JsonObject::new();
    o.str("frame", "dump");
    let mut arr = o.array("events");
    for e in events {
        arr.raw(e);
    }
    arr.finish();
    o.finish()
}

/// `{"frame":"shutdown_ack"}` — the server is draining and will exit.
#[must_use]
pub fn frame_shutdown_ack() -> String {
    let mut o = JsonObject::new();
    o.str("frame", "shutdown_ack");
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use scal_netlist::GateKind;

    fn xor3() -> Circuit {
        let mut c = Circuit::new();
        let a = c.input("a");
        let b = c.input("b");
        let d = c.input("c");
        let x = c.gate(GateKind::Xor, &[a, b, d]);
        c.mark_output("f", x);
        c
    }

    #[test]
    fn pair_spec_round_trips_through_the_wire() {
        let c = xor3();
        let faults = scal_faults::enumerate_faults(&c);
        let spec = JobSpec {
            kind: JobKind::Pair {
                circuit: c.clone(),
                faults: FaultSpec::List(faults.clone()),
                drop_after_detection: true,
                eval_mode: EvalMode::Full,
                scalar: false,
            },
            priority: 7,
            timeout_ms: Some(1000),
            threads: 2,
            stream: true,
            fault_collapse: Some(false),
            netlist_format: NetlistFormat::ScalText,
        };
        let line = spec.to_request_line();
        let parsed = match Request::parse(&line).unwrap() {
            Request::Submit(s) => *s,
            other => panic!("expected submit, got {other:?}"),
        };
        assert_eq!(parsed.priority, 7);
        assert_eq!(parsed.timeout_ms, Some(1000));
        assert_eq!(parsed.threads, 2);
        assert_eq!(parsed.fault_collapse, Some(false));
        match parsed.kind {
            JobKind::Pair {
                circuit,
                faults: FaultSpec::List(parsed_faults),
                drop_after_detection: true,
                eval_mode: EvalMode::Full,
                scalar: false,
            } => {
                scal_netlist::assert_circuit_eq(&circuit, &c);
                assert_eq!(parsed_faults, faults);
            }
            other => panic!("bad kind: {other:?}"),
        }
    }

    #[test]
    fn seq_spec_round_trips_through_the_wire() {
        let machine = scal_seq::kohavi::reynolds_circuit();
        let words = vec![vec![false], vec![true], vec![false]];
        let spec = JobSpec {
            kind: JobKind::Seq {
                machine: machine.clone(),
                words: words.clone(),
                backend: SeqBackend::Graph,
            },
            priority: DEFAULT_PRIORITY,
            timeout_ms: None,
            threads: 0,
            stream: false,
            fault_collapse: None,
            netlist_format: NetlistFormat::Bench,
        };
        let line = spec.to_request_line();
        assert!(line.contains("\"netlist_format\":\"bench\""));
        assert!(
            !line.contains("fault_collapse"),
            "None must stay off the wire"
        );
        let parsed = match Request::parse(&line).unwrap() {
            Request::Submit(s) => *s,
            other => panic!("expected submit, got {other:?}"),
        };
        assert!(!parsed.stream);
        assert_eq!(parsed.fault_collapse, None);
        match parsed.kind {
            JobKind::Seq {
                machine: m,
                words: w,
                backend: SeqBackend::Graph,
            } => {
                scal_netlist::assert_circuit_eq(&m.circuit, &machine.circuit);
                assert_eq!(m.z_count, machine.z_count);
                assert_eq!(m.y_count, machine.y_count);
                assert_eq!(m.code_pair, machine.code_pair);
                assert_eq!(w, words);
            }
            other => panic!("bad kind: {other:?}"),
        }
    }

    #[test]
    fn cpu_spec_round_trips_through_the_wire() {
        let spec = JobSpec {
            kind: JobKind::Cpu {
                unit: CpuUnit::Logic,
                budget: 50_000,
                workloads: Some(vec!["popcount(0xB7)".to_owned()]),
            },
            priority: 9,
            timeout_ms: None,
            threads: 1,
            stream: true,
            fault_collapse: Some(true),
            netlist_format: NetlistFormat::ScalText,
        };
        let parsed = match Request::parse(&spec.to_request_line()).unwrap() {
            Request::Submit(s) => *s,
            other => panic!("expected submit, got {other:?}"),
        };
        match parsed.kind {
            JobKind::Cpu {
                unit: CpuUnit::Logic,
                budget: 50_000,
                workloads: Some(names),
            } => assert_eq!(names, ["popcount(0xB7)"]),
            other => panic!("bad kind: {other:?}"),
        }
    }

    #[test]
    fn hostile_requests_get_typed_errors() {
        let cases = [
            ("not json at all", "bad_json"),
            ("{\"cmd\":\"fly\"}", "bad_request"),
            ("{\"cmd\":\"submit\",\"kind\":\"pair\"}", "bad_request"),
            (
                "{\"cmd\":\"submit\",\"kind\":\"pair\",\"netlist\":\"garbage\"}",
                "bad_netlist",
            ),
            (
                "{\"cmd\":\"submit\",\"kind\":\"pair\",\"netlist_format\":\"edif\",\"netlist\":\"x\"}",
                "bad_request",
            ),
            ("{\"cmd\":\"cancel\"}", "bad_request"),
            ("{\"cmd\":\"status\",\"v\":99}", "bad_version"),
            (
                "{\"cmd\":\"submit\",\"kind\":\"cpu\",\"unit\":\"logic\",\"budget\":3}",
                "bad_request",
            ),
            (
                "{\"cmd\":\"submit\",\"kind\":\"cpu\",\"unit\":\"logic\",\"workloads\":[\"rm -rf\"]}",
                "bad_request",
            ),
            (
                "{\"cmd\":\"submit\",\"kind\":\"cpu\",\"unit\":\"logic\",\"fault_collapse\":\"yes\"}",
                "bad_request",
            ),
            (
                "{\"cmd\":\"submit\",\"kind\":\"pair\",\"netlist\":\"scal-netlist v1\\ninput n0 a\\ngate n1 not n0\\noutput f n1\\n\",\"eval_mode\":\"both\"}",
                "bad_request",
            ),
        ];
        for (line, code) in cases {
            match Request::parse(line) {
                Err(e) => assert_eq!(e.code, code, "line {line:?}"),
                Ok(r) => panic!("{line:?} parsed as {r:?}"),
            }
        }
    }

    #[test]
    fn driven_word_arity_mismatches_are_rejected_not_panicked() {
        let machine = scal_seq::kohavi::reynolds_circuit();
        let spec = JobSpec {
            kind: JobKind::Seq {
                machine,
                words: vec![vec![false, true]], // Kohavi has 1 external input
                backend: SeqBackend::Packed,
            },
            priority: 0,
            timeout_ms: None,
            threads: 0,
            stream: true,
            fault_collapse: None,
            netlist_format: NetlistFormat::ScalText,
        };
        let err = Request::parse(&spec.to_request_line()).unwrap_err();
        assert_eq!(err.code, "bad_words");
    }

    #[test]
    fn fault_entries_name_real_pins() {
        let c = xor3();
        let mut line = String::from("{\"cmd\":\"submit\",\"kind\":\"pair\",\"netlist\":\"");
        json::escape_into(&mut line, &c.write_string(NetlistFormat::ScalText));
        line.push_str("\",\"faults\":[{\"site\":\"branch\",\"node\":3,\"pin\":9,\"stuck\":true}]}");
        assert_eq!(Request::parse(&line).unwrap_err().code, "bad_faults");
    }

    #[test]
    fn frames_are_valid_jsonl() {
        let cov = CoverageMap::default();
        let status = StatusInfo {
            workers: 4,
            running: 1,
            done: 7,
            uptime_ms: 1234,
            jobs_accepted: 8,
            jobs_finished: 7,
            ..StatusInfo::default()
        };
        let frames = [
            frame_accepted(1, 42, "pair", 4, 0),
            frame_event(1, 42, &CampaignEvent::Progress { done: 1, total: 10 }),
            frame_result(1, 42, "{\"campaign\":\"pair\"}", &cov, 12),
            frame_error(Some(1), Some(42), "bad_request", "nope"),
            frame_error(None, None, "bad_json", "nope"),
            frame_cancel_ack(1, true),
            frame_status(&status),
            frame_dump(&["{\"ms\":1,\"id\":1,\"trace\":42,\"state\":\"submit\"}".to_owned()]),
            frame_dump(&[]),
            frame_shutdown_ack(),
        ];
        for f in &frames {
            json::validate_jsonl(f).expect("valid frame");
            assert_eq!(f.lines().count(), 1);
        }
    }

    #[test]
    fn job_frames_carry_their_trace() {
        let cov = CoverageMap::default();
        for f in [
            frame_accepted(3, 99, "seq", 1, 2),
            frame_event(3, 99, &CampaignEvent::Progress { done: 1, total: 2 }),
            frame_result(3, 99, "{}", &cov, 1),
            frame_error(Some(3), Some(99), "engine", "x"),
        ] {
            let v = json::parse(&f).unwrap();
            assert_eq!(
                v.get("trace").and_then(JsonValue::as_f64),
                Some(99.0),
                "{f}"
            );
            assert_eq!(v.get("id").and_then(JsonValue::as_f64), Some(3.0), "{f}");
        }
        // Request-level errors have no id and no trace.
        let v = json::parse(&frame_error(None, None, "bad_json", "x")).unwrap();
        assert!(v.get("trace").is_none() && v.get("id").is_none());
    }

    #[test]
    fn status_frame_reports_extended_counters() {
        let mut info = StatusInfo {
            workers: 2,
            queued: 3,
            uptime_ms: 500,
            jobs_accepted: 10,
            jobs_cancelled: 2,
            jobs_timed_out: 1,
            ..StatusInfo::default()
        };
        info.queue_depths[9] = 3;
        let v = json::parse(&frame_status(&info)).unwrap();
        assert_eq!(v.get("uptime_ms").and_then(JsonValue::as_f64), Some(500.0));
        let depths = v.get("queue_depths").and_then(JsonValue::as_array).unwrap();
        assert_eq!(depths.len(), 10);
        assert_eq!(depths[9].as_f64(), Some(3.0));
        let jobs = v.get("jobs").expect("jobs object");
        assert_eq!(jobs.get("accepted").and_then(JsonValue::as_f64), Some(10.0));
        assert_eq!(jobs.get("timed_out").and_then(JsonValue::as_f64), Some(1.0));
    }

    #[test]
    fn dump_requests_parse() {
        match Request::parse("{\"cmd\":\"dump\",\"v\":1}").unwrap() {
            Request::Dump => {}
            other => panic!("expected dump, got {other:?}"),
        }
    }
}
