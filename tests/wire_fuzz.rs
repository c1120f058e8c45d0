//! Wire-robustness fuzz: arbitrary bytes thrown at a live `ktudc-serve`
//! daemon must never panic it, wedge it, or elicit anything but typed
//! `Response` lines.
//!
//! Every property shares one leaked server and drives a raw TCP socket
//! (no client-side validation in the way). After the hostile payload,
//! the same connection sends a sentinel `Stats` request; the server must
//! answer every non-empty line it read with a parseable [`Response`]
//! (garbage gets `BadRequest` with id 0) and still serve the sentinel —
//! proving the connection survived and the daemon stayed responsive,
//! inside a hard per-case time bound.
//!
//! The decoder pins need no server: the borrowed envelope decoder
//! [`RequestLine`] must accept and reject exactly the lines the reference
//! `serde_json::from_str::<Request>` does, and the canonical body
//! encoding the cache is keyed by must be a fixed point of decode then
//! encode, since a cache hit answers from the body's bytes alone.

use ktudc::core::harness::{CellSpec, FdChoice, ProtocolChoice};
use ktudc::epistemic::Formula;
use ktudc::fd::{ClassifySpec, DetectorKind, FaultRegime};
use ktudc::model::{ActionId, ProcessId};
use ktudc::sim::{ExploreSpec, FdRule, WireProtocol};
use ktudc_serve::{
    serve, CheckSpec, LineError, Request, RequestKind, RequestLine, RequestOptions, Response,
    ServeConfig, MIN_SCHEMA_VERSION, SCHEMA_VERSION,
};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Response id of the sentinel `Stats` request; garbage lines are
/// answered with id 0, so the sentinel is unambiguous.
const SENTINEL_ID: u64 = 0xF00D;

/// Hard per-case bound: payload written, every reply read, sentinel
/// answered. Generous next to the observed microseconds, but a stalled
/// or wedged server blows through it.
const CASE_BUDGET: Duration = Duration::from_secs(10);

/// One server for the whole fuzz run, leaked for the process lifetime.
fn server_addr() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        let handle = serve(&ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 16,
            cache_capacity: 64,
            watchdog_tick_ms: 10,
            stuck_after_ticks: 400,
            ..ServeConfig::default()
        })
        .expect("bind ephemeral port");
        let addr = handle.addr();
        std::mem::forget(handle); // keep serving until the process exits
        addr
    })
}

/// Writes `payload` followed by a newline and a sentinel `Stats` line,
/// then reads replies until the sentinel answers. Returns an error
/// string describing any contract violation.
fn exchange(payload: &[u8]) -> Result<(), String> {
    let started = Instant::now();
    let mut conn = TcpStream::connect(server_addr()).map_err(|e| format!("connect failed: {e}"))?;
    conn.set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| format!("set_read_timeout failed: {e}"))?;
    let sentinel = serde_json::to_string(&Request::new(SENTINEL_ID, RequestKind::Stats))
        .map_err(|e| format!("encode sentinel: {e}"))?;
    let mut frame = payload.to_vec();
    frame.push(b'\n');
    frame.extend_from_slice(sentinel.as_bytes());
    frame.push(b'\n');
    conn.write_all(&frame)
        .map_err(|e| format!("write failed: {e}"))?;
    let mut reader = BufReader::new(conn);
    let mut line = String::new();
    loop {
        if started.elapsed() > CASE_BUDGET {
            return Err(format!(
                "case exceeded {CASE_BUDGET:?} without a sentinel reply"
            ));
        }
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return Err("server closed before answering the sentinel".to_string()),
            Ok(_) => {}
            Err(e) => return Err(format!("read stalled or failed: {e}")),
        }
        let trimmed = line.trim_end_matches(['\n', '\r']);
        if trimmed.is_empty() {
            continue;
        }
        let resp: Response = serde_json::from_str(trimmed)
            .map_err(|e| format!("unparseable reply {trimmed:?}: {e:?}"))?;
        if resp.id == SENTINEL_ID {
            return Ok(());
        }
    }
}

/// A payload is only interesting if it is *not* a well-formed request:
/// a fuzzed line that happens to parse must be skipped, both to keep
/// the property about malformed input and to avoid handing the shared
/// server a surprise `Shutdown` or an expensive random computation.
fn is_valid_request(payload: &[u8]) -> bool {
    payload.split(|&b| b == b'\n').any(|seg| {
        std::str::from_utf8(seg)
            .ok()
            .is_some_and(|s| serde_json::from_str::<Request>(s.trim()).is_ok())
    })
}

proptest! {
    /// Arbitrary byte lines (any bytes, embedded newlines and all) are
    /// each answered with a typed `BadRequest`; the connection survives
    /// and the sentinel is served within the time budget.
    #[test]
    fn arbitrary_bytes_never_panic_or_wedge_the_server(
        payload in proptest::collection::vec(0u8..=255, 0..4096)
    ) {
        if !is_valid_request(&payload) {
            if let Err(what) = exchange(&payload) {
                prop_assert!(false, "payload {payload:?}: {what}");
            }
        }
    }

    /// Torn frames: a strict prefix of a valid request line is never
    /// valid JSON, and must be refused — not half-parsed, not hung on.
    #[test]
    fn truncated_request_lines_get_a_typed_refusal(
        id in 1u64..1_000_000,
        cut in 1usize..60,
    ) {
        let line = serde_json::to_string(&Request::new(id, RequestKind::Health))
            .expect("encode");
        let cut = cut.min(line.len() - 1);
        let torn = &line.as_bytes()[..cut];
        if !is_valid_request(torn) {
            if let Err(what) = exchange(torn) {
                prop_assert!(false, "torn prefix {torn:?}: {what}");
            }
        }
    }

    /// Single-byte corruption of a valid request line: whatever byte
    /// lands wherever, the reply is a typed response or a typed
    /// refusal, never a panic or a stall.
    #[test]
    fn corrupted_request_lines_never_panic_or_wedge_the_server(
        id in 1u64..1_000_000,
        pos in 0usize..200,
        byte in 0u8..=255,
    ) {
        let line = serde_json::to_string(&Request::new(id, RequestKind::ClusterHealth))
            .expect("encode");
        let mut mutated = line.into_bytes();
        let pos = pos % mutated.len();
        mutated[pos] = byte;
        if !is_valid_request(&mutated) {
            if let Err(what) = exchange(&mutated) {
                prop_assert!(false, "mutated line {mutated:?}: {what}");
            }
        }
    }
}

// ------------------------------------------------ envelope decoder pins

/// SplitMix64: every choice of a generated line, from one drawn seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

/// Any finite float: raw bit patterns (subnormals, huge exponents,
/// negative zero) as well as the probabilities specs really carry.
fn float(mix: &mut Mix) -> f64 {
    if mix.chance(2) {
        let f = f64::from_bits(mix.next());
        if f.is_finite() {
            return f;
        }
    }
    mix.pick(&[
        0.0,
        -0.0,
        0.1,
        0.2,
        0.6,
        1.0 / 3.0,
        0.1 + 0.2,
        1e-7,
        5e-324,
        1e300,
    ])
}

fn process(mix: &mut Mix) -> ProcessId {
    ProcessId::new(mix.below(8) as usize)
}

fn action(mix: &mut Mix) -> ActionId {
    ActionId::new(process(mix), mix.next() as u32)
}

fn formula(mix: &mut Mix, depth: u32) -> Formula<u8> {
    let leaf = depth == 0 || mix.chance(3);
    match if leaf { mix.below(6) } else { 6 + mix.below(7) } {
        0 => Formula::True,
        1 => Formula::crashed(process(mix)),
        2 => Formula::initiated(action(mix)),
        3 => Formula::did(process(mix), action(mix)),
        4 => Formula::sent(process(mix), process(mix), mix.next() as u8),
        5 => Formula::suspects(process(mix), process(mix)),
        6 => Formula::not(formula(mix, depth - 1)),
        7 => Formula::and((0..mix.below(3)).map(|_| formula(mix, depth - 1)).collect()),
        8 => Formula::or((0..mix.below(3)).map(|_| formula(mix, depth - 1)).collect()),
        9 => Formula::always(formula(mix, depth - 1)),
        10 => Formula::eventually(formula(mix, depth - 1)),
        11 => Formula::knows(process(mix), formula(mix, depth - 1)),
        _ => Formula::received(process(mix), process(mix), mix.next() as u8),
    }
}

fn scenario(mix: &mut Mix) -> ExploreSpec {
    let mut spec = ExploreSpec::new(2 + mix.below(3) as usize, mix.next() % 1000);
    spec.max_failures = mix.below(3) as usize;
    spec.allow_stutter = mix.chance(2);
    spec.fd = if mix.chance(2) {
        FdRule::None
    } else {
        FdRule::Perfect { period: mix.next() }
    };
    spec.fd_forced = mix.chance(2);
    spec.initiations = (0..mix.below(3))
        .map(|_| (mix.next(), action(mix)))
        .collect();
    spec.forced_initiations = mix.chance(2);
    spec.max_runs = mix.next() as usize;
    spec.protocol = if mix.chance(2) {
        WireProtocol::Idle
    } else {
        WireProtocol::OneShot {
            from: mix.below(4) as usize,
            to: mix.below(4) as usize,
            msg: mix.next() as u8,
        }
    };
    spec
}

/// A body-carrying request kind: the four cacheable endpoints.
fn compute_kind(mix: &mut Mix) -> RequestKind {
    match mix.below(4) {
        0 => {
            let fd = mix.pick(&[
                FdChoice::None,
                FdChoice::Cycling,
                FdChoice::TUseful,
                FdChoice::Weak,
                FdChoice::ImpermanentStrong,
                FdChoice::Strong,
                FdChoice::Perfect,
                FdChoice::Heartbeat,
                FdChoice::PhiAccrual,
                FdChoice::Gossip,
            ]);
            let protocol = mix.pick(&[
                ProtocolChoice::Reliable,
                ProtocolChoice::StrongFd,
                ProtocolChoice::Generalized,
            ]);
            let drop_prob = if mix.chance(4) {
                None
            } else {
                Some(float(mix))
            };
            let spec = CellSpec::new(
                mix.below(64) as usize,
                mix.below(64) as usize,
                drop_prob,
                fd,
                protocol,
            );
            RequestKind::Cell(spec.trials(mix.next()).horizon(mix.next()))
        }
        1 => RequestKind::Check(CheckSpec {
            scenario: scenario(mix),
            formula: formula(mix, 4),
        }),
        2 => RequestKind::Explore(scenario(mix)),
        _ => {
            let mut spec =
                ClassifySpec::new(mix.pick(&DetectorKind::ALL), mix.pick(&FaultRegime::ALL));
            spec.n = mix.below(16) as usize;
            spec.trials = mix.next();
            spec.horizon = mix.next();
            spec.seed = mix.next();
            RequestKind::Classify(spec)
        }
    }
}

fn kind(mix: &mut Mix) -> RequestKind {
    if mix.chance(4) {
        match mix.below(5) {
            0 => RequestKind::Stats,
            1 => RequestKind::Health,
            2 => RequestKind::ClusterHealth,
            3 => RequestKind::Ping,
            _ => RequestKind::Shutdown,
        }
    } else {
        compute_kind(mix)
    }
}

/// Any JSON value's text, as an unknown key or a duplicate might carry.
fn stray_value(mix: &mut Mix) -> String {
    if mix.chance(3) {
        return serde_json::to_string(&compute_kind(mix)).expect("a generated kind encodes");
    }
    mix.pick(&[
        "null",
        "true",
        "0",
        "-1",
        "1.5",
        "-0.5e3",
        "18446744073709551616",
        "\"6\"",
        "\"x\\\"y\\u00e9\"",
        "[]",
        "[1,{\"a\":[null]}]",
        "{}",
        "{\"kind\":{\"Cell\":1}}",
        "\"Stats\"",
        "\"Bogus\"",
        "{\"Cell\":null}",
    ])
    .to_string()
}

/// Inserts random JSON whitespace after structural bytes outside strings.
fn pad(text: &str, mix: &mut Mix) -> String {
    let mut out = String::with_capacity(text.len() * 2);
    let mut in_string = false;
    let mut escaped = false;
    for c in text.chars() {
        out.push(c);
        if in_string {
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '}' | '[' | ']' | ':' | ',' if mix.chance(3) => out.push_str(whitespace(mix)),
            _ => {}
        }
    }
    out
}

fn whitespace(mix: &mut Mix) -> &'static str {
    mix.pick(&[" ", "  ", "\t", "\r\n", "\n \t"])
}

/// A key as JSON text, one character written as a `\u` escape.
fn escaped_key(key: &str, mix: &mut Mix) -> String {
    let at = mix.below(key.len() as u64) as usize;
    let mut out = String::from("\"");
    for (i, c) in key.chars().enumerate() {
        if i == at {
            out.push_str(&format!("\\u{:04x}", c as u32));
        } else {
            out.push(c);
        }
    }
    out.push('"');
    out
}

/// One test line: a request, encoded canonically and then put through a
/// few of the ways a line can differ from that (returned by name).
fn line(mix: &mut Mix) -> (String, Vec<&'static str>) {
    let mut edits = Vec::new();
    let options = RequestOptions {
        deadline_ms: mix.chance(3).then(|| mix.next() % 100_000),
        priority: if mix.chance(3) { mix.next() as u8 } else { 0 },
        accept_partial: mix.chance(3),
    };
    let request = Request {
        schema_version: mix.pick(&[2, 3, 4, 5, 6]),
        id: mix.next(),
        kind: kind(mix),
        options,
    };
    let canonical = serde_json::to_string(&request).expect("a generated request encodes");
    if mix.chance(4) {
        return (canonical, vec!["canonical"]);
    }
    // The canonical top-level fields, in order, as (key, value text).
    let mut fields: Vec<(String, String)> = vec![
        ("schema_version".into(), request.schema_version.to_string()),
        ("id".into(), request.id.to_string()),
        (
            "kind".into(),
            serde_json::to_string(&request.kind).expect("a generated kind encodes"),
        ),
    ];
    if let Some(deadline_ms) = options.deadline_ms {
        fields.push(("deadline_ms".into(), deadline_ms.to_string()));
    }
    if options.priority != 0 {
        fields.push(("priority".into(), options.priority.to_string()));
    }
    if options.accept_partial {
        fields.push(("accept_partial".into(), "true".into()));
    }
    let set = |fields: &mut Vec<(String, String)>, key: &str, value: String| match fields
        .iter_mut()
        .find(|(k, _)| k == key)
    {
        Some(field) => field.1 = value,
        None => fields.push((key.to_string(), value)),
    };
    if mix.chance(4) {
        edits.push("version");
        let version = mix.pick(&[
            "0",
            "1",
            "2",
            "6",
            "7",
            "4294967296",
            "-1",
            "1.5",
            "\"6\"",
            "null",
        ]);
        set(&mut fields, "schema_version", version.to_string());
    }
    if mix.chance(4) {
        edits.push("options");
        let key = mix.pick(&["deadline_ms", "priority", "accept_partial"]);
        let value = mix.pick(&[
            "null", "0", "1", "255", "256", "-1", "1.5", "true", "false", "\"x\"",
        ]);
        set(&mut fields, key, value.to_string());
    }
    if mix.chance(4) {
        edits.push("deadline null");
        set(&mut fields, "deadline_ms", "null".to_string());
    }
    if mix.chance(4) {
        edits.push("duplicate");
        let key = mix.pick(&["id", "kind", "schema_version"]);
        let value = if key == "kind" && mix.chance(2) {
            serde_json::to_string(&kind(mix)).expect("a generated kind encodes")
        } else {
            stray_value(mix)
        };
        let at = mix.below(fields.len() as u64 + 1) as usize;
        fields.insert(at, (key.to_string(), value));
    }
    if mix.chance(4) {
        edits.push("unknown key");
        let key = mix.pick(&["zz", "kinds", "Kind", "id ", "", "options"]);
        let at = mix.below(fields.len() as u64 + 1) as usize;
        fields.insert(at, (key.to_string(), stray_value(mix)));
    }
    if mix.chance(3) {
        edits.push("reordered");
        for i in (1..fields.len()).rev() {
            let j = mix.below(i as u64 + 1) as usize;
            fields.swap(i, j);
        }
    }
    let escape = mix.chance(4);
    if escape {
        edits.push("escaped key");
    }
    let mut text = String::from("{");
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            text.push(',');
        }
        if escape && !key.is_empty() && mix.chance(2) {
            text.push_str(&escaped_key(key, mix));
        } else {
            text.push_str(&serde_json::to_string(key).expect("a key encodes"));
        }
        text.push(':');
        text.push_str(value);
    }
    text.push('}');
    if mix.chance(3) {
        edits.push("whitespace");
        text = format!("{}{}{}", whitespace(mix), pad(&text, mix), whitespace(mix));
    }
    if mix.chance(6) {
        edits.push("truncated");
        text.truncate(mix.below(text.len() as u64) as usize);
    }
    if !text.is_empty() && mix.chance(6) {
        edits.push("corrupted");
        let at = mix.below(text.len() as u64) as usize;
        let byte = mix.pick(b"{}[]\":,\\ 0123456789.-+eEtfnulx\t");
        let mut bytes = text.into_bytes();
        bytes[at] = byte;
        text = String::from_utf8(bytes).expect("ASCII in, ASCII out");
    }
    if edits.is_empty() {
        edits.push("canonical");
    }
    (text, edits)
}

/// How a server must answer a line.
#[derive(Debug, PartialEq)]
enum Verdict {
    /// `BadRequest` under id 0.
    Malformed,
    /// `UnsupportedVersion` under the request's id.
    Unsupported { id: u64, version: u32 },
    /// Served as this request.
    Serve(Request),
}

/// The verdict of the reference decoder plus the version range check.
fn reference_verdict(line: &str) -> Verdict {
    match serde_json::from_str::<Request>(line) {
        Err(_) => Verdict::Malformed,
        Ok(r) if !(MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&r.schema_version) => {
            Verdict::Unsupported {
                id: r.id,
                version: r.schema_version,
            }
        }
        Ok(r) => Verdict::Serve(r),
    }
}

/// The verdict of the envelope decoder, with the body decoded from its
/// span as a miss would.
fn envelope_verdict(line: &str) -> Verdict {
    match RequestLine::parse(line) {
        Err(LineError::Malformed(_)) => Verdict::Malformed,
        Err(LineError::UnsupportedVersion { id, version }) => Verdict::Unsupported { id, version },
        Ok(l) => match l.decode_kind() {
            Err(_) => Verdict::Malformed,
            Ok(kind) => Verdict::Serve(Request {
                schema_version: l.schema_version,
                id: l.id,
                kind,
                options: l.options,
            }),
        },
    }
}

proptest! {
    /// `RequestLine` agrees with the reference decoder on every line:
    /// refused the same way, or served with the same version, id and
    /// options and a body span that decodes to the same kind.
    #[test]
    fn the_envelope_decoder_agrees_with_the_reference(seed in 0u64..u64::MAX) {
        let (line, edits) = line(&mut Mix(seed));
        prop_assert_eq!(
            envelope_verdict(&line),
            reference_verdict(&line),
            "line {:?} after {:?}",
            line,
            edits
        );
    }

    /// The canonical body encoding is a fixed point of decode then
    /// encode, so a body equal to a cached key decodes to the spec that
    /// key was made from.
    #[test]
    fn canonical_bodies_are_fixed_points(seed in 0u64..u64::MAX) {
        let kind = compute_kind(&mut Mix(seed));
        let canon = serde_json::to_string(&kind).expect("a generated kind encodes");
        let back: RequestKind = serde_json::from_str(&canon).expect("a canonical body decodes");
        prop_assert_eq!(&back, &kind);
        prop_assert_eq!(serde_json::to_string(&back).expect("encodes"), canon);
    }
}

/// The line generator reaches every verdict and every edit, so the
/// differential property is not vacuous.
#[test]
fn envelope_lines_cover_every_verdict_and_edit() {
    let mut seen_edits = std::collections::BTreeSet::new();
    let (mut malformed, mut unsupported, mut served) = (0, 0, 0);
    for seed in 0..2_000 {
        let (line, edits) = line(&mut Mix(seed));
        seen_edits.extend(edits);
        match reference_verdict(&line) {
            Verdict::Malformed => malformed += 1,
            Verdict::Unsupported { .. } => unsupported += 1,
            Verdict::Serve(_) => served += 1,
        }
    }
    assert!(
        malformed > 0 && unsupported > 0 && served > 0,
        "{malformed} malformed, {unsupported} unsupported, {served} served"
    );
    let all = [
        "canonical",
        "version",
        "options",
        "deadline null",
        "duplicate",
        "unknown key",
        "reordered",
        "escaped key",
        "whitespace",
        "truncated",
        "corrupted",
    ];
    for edit in all {
        assert!(seen_edits.contains(edit), "no line had edit {edit:?}");
    }
}

/// A line the reference rejects is answered `BadRequest` under id 0, and
/// that holds for a body that is valid JSON but not a request kind.
#[test]
fn a_line_the_reference_rejects_is_refused_with_id_zero() {
    for line in [
        r#"{"schema_version":6,"id":9,"kind":"Bogus"}"#,
        r#"{"schema_version":6,"id":9,"kind":{"Cell":null}}"#,
        r#"{"schema_version":1,"id":9,"kind":{"Cell":null}}"#,
        r#"{"schema_version":6,"id":9}"#,
        r#"{"schema_version":6,"id":9,"kind":"Stats","priority":256}"#,
        r#"{"schema_version":6,"id":9,"kind":"Stats"} x"#,
    ] {
        assert_eq!(reference_verdict(line), Verdict::Malformed, "{line}");
        let refusal = match RequestLine::parse(line) {
            Err(refusal) => refusal,
            Ok(l) => l.decode_kind().expect_err("the body is not a kind"),
        };
        let response = refusal.response("server");
        assert_eq!(response.id, 0, "{line}");
        assert!(
            matches!(
                response.result,
                ktudc_serve::ResponseKind::Error(ref e)
                    if e.code == ktudc_serve::ErrorCode::BadRequest
            ),
            "{line}: {response:?}"
        );
    }
}
