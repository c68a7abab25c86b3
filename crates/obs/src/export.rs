//! Exporters: chrome://tracing JSON, a text timeline per rank, and a
//! dependency-free JSON syntax validator.
//!
//! The chrome export uses the Trace Event Format's complete-event form
//! (`"ph": "X"`): one object per span with microsecond `ts`/`dur`,
//! `pid` = rank and `tid` = lane, so chrome://tracing (or Perfetto)
//! renders each rank as a process with its comm / compute / solver lanes
//! as threads. Byte and nonzero payloads travel in `args`.
//!
//! The workspace is dependency-free, so the validator is a small
//! recursive-descent JSON parser — enough for the CI smoke job (and the
//! trace tests) to prove an exported file *parses*, without serde.

use crate::phase::Phase;
use crate::recorder::SpanEvent;
use crate::trace::{RunTrace, FAULT_LANE};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Renders `trace` in chrome://tracing `trace_events` JSON.
#[must_use]
pub fn chrome_trace_json(trace: &RunTrace) -> String {
    let mut out = String::with_capacity(trace.events.len() * 120 + 64);
    out.push_str("{\"traceEvents\":[");
    for (i, e) in trace.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ts = e.t0 * 1e6;
        let dur = e.duration() * 1e6;
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":{},\"tid\":{},\"args\":{{\"bytes\":{},\"nnz\":{}}}}}",
            e.phase.label(),
            category(e),
            ts,
            dur,
            e.rank,
            e.lane,
            e.bytes,
            e.nnz,
        );
    }
    let _ = write!(
        out,
        "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"dropped_spans\":{}}}}}",
        trace.dropped
    );
    out
}

fn category(e: &SpanEvent) -> &'static str {
    if e.lane == FAULT_LANE || e.phase.is_fault() {
        "fault"
    } else if e.phase.is_comm() {
        "comm"
    } else if e.phase.is_compute() {
        "compute"
    } else {
        "phase"
    }
}

/// Renders one rank's timeline as text — the paper's Fig. 4, drawn from a
/// simulated or a measured run. The axis runs `width` columns from the
/// rank's first span to its last; there is one row per lane that holds
/// events, labelled by what it holds (`comm`, `compute`, `solver` or
/// `fault`), then a legend of the phase symbols.
#[must_use]
pub fn text_timeline(trace: &RunTrace, rank: usize, width: usize) -> String {
    let mut lanes: BTreeMap<usize, Vec<&SpanEvent>> = BTreeMap::new();
    for e in trace.rank_events(rank) {
        lanes.entry(e.lane).or_default().push(e);
    }
    let events = || lanes.values().flatten();
    let Some(start) = events().map(|e| e.t0).min_by(f64::total_cmp) else {
        return String::from("(no events)\n");
    };
    let end = events().map(|e| e.t1).fold(start, f64::max);
    let width = width.max(1);
    let scale = if end > start {
        width as f64 / (end - start)
    } else {
        0.0
    };
    let mut out = String::new();
    for (&lane, evs) in &lanes {
        let mut row = vec![b' '; width];
        for e in evs {
            let a = (((e.t0 - start) * scale).floor() as usize).min(width - 1);
            let b = (((e.t1 - start) * scale).ceil() as usize).clamp(a + 1, width);
            row[a..b].fill(symbol(e.phase));
        }
        let row = String::from_utf8(row).expect("ascii");
        let _ = writeln!(out, "rank {rank} {:<7} |{row}|", lane_label(lane, evs));
    }
    out.push_str(
        "legend: g=gather s=send r=post-recvs w=waitall L=spmv(local) N=spmv(nonlocal) \
         F=spmv(full) b=barrier",
    );
    if events().any(|e| is_solver(e.phase)) {
        out.push_str(" i=iteration");
    }
    if events().any(|e| e.phase.is_fault()) {
        out.push_str(" x=fault");
    }
    out.push('\n');
    out
}

fn is_solver(phase: Phase) -> bool {
    matches!(phase, Phase::CgIter | Phase::LanczosIter)
}

/// What a timeline row holds: a lane that only makes MPI calls is `comm`;
/// one that also gathers or computes (a vector-mode lane) is `compute`.
fn lane_label(lane: usize, evs: &[&SpanEvent]) -> &'static str {
    let holds = |f: fn(Phase) -> bool| evs.iter().any(|e| f(e.phase));
    if lane == FAULT_LANE {
        "fault"
    } else if holds(is_solver) {
        "solver"
    } else if holds(Phase::is_comm) && !holds(|p| p.is_compute() || p == Phase::Gather) {
        "comm"
    } else {
        "compute"
    }
}

fn symbol(phase: Phase) -> u8 {
    match phase {
        Phase::Gather => b'g',
        Phase::Send => b's',
        Phase::PostRecvs => b'r',
        Phase::Waitall => b'w',
        Phase::SpmvLocal => b'L',
        Phase::SpmvNonlocal => b'N',
        Phase::SpmvFull => b'F',
        Phase::Barrier => b'b',
        Phase::CgIter | Phase::LanczosIter => b'i',
        Phase::FaultDelay
        | Phase::FaultReorder
        | Phase::FaultDuplicate
        | Phase::FaultDrop
        | Phase::FaultTruncate
        | Phase::Stall => b'x',
    }
}

/// Validates that `s` is one well-formed JSON value (RFC 8259 syntax; no
/// DOM is built). Returns the byte offset and a message on failure.
pub fn validate_json(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut p = Parser { b, i: 0 };
    p.skip_ws();
    p.value()?;
    p.skip_ws();
    if p.i != b.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(())
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err<T>(&self, msg: &str) -> Result<T, String> {
        Err(format!("{msg} at byte {}", self.i))
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", c as char))
        }
    }

    fn value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => self.err("expected a JSON value"),
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            self.err(&format!("expected '{lit}'"))
        }
    }

    fn object(&mut self) -> Result<(), String> {
        self.eat(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.eat(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.eat(b'"')?;
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.i += 1;
                        }
                        Some(b'u') => {
                            self.i += 1;
                            for _ in 0..4 {
                                match self.peek() {
                                    Some(c) if c.is_ascii_hexdigit() => self.i += 1,
                                    _ => return self.err("bad \\u escape"),
                                }
                            }
                        }
                        _ => return self.err("bad escape"),
                    }
                }
                Some(c) if c < 0x20 => return self.err("control char in string"),
                Some(_) => self.i += 1,
            }
        }
    }

    fn number(&mut self) -> Result<(), String> {
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        match self.peek() {
            Some(b'0') => self.i += 1,
            Some(c) if c.is_ascii_digit() => self.digits(),
            _ => return self.err("expected digit"),
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            match self.peek() {
                Some(c) if c.is_ascii_digit() => self.digits(),
                _ => return self.err("expected fraction digits"),
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            match self.peek() {
                Some(c) if c.is_ascii_digit() => self.digits(),
                _ => return self.err("expected exponent digits"),
            }
        }
        Ok(())
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::Phase;
    use crate::trace::RankTrace;

    fn sample() -> RunTrace {
        RunTrace::from_ranks([RankTrace {
            rank: 0,
            events: vec![
                SpanEvent {
                    phase: Phase::Waitall,
                    rank: 0,
                    lane: 0,
                    t0: 0.001,
                    t1: 0.002,
                    bytes: 4096,
                    nnz: 0,
                },
                SpanEvent {
                    phase: Phase::SpmvLocal,
                    rank: 0,
                    lane: 1,
                    t0: 0.001,
                    t1: 0.003,
                    bytes: 0,
                    nnz: 1234,
                },
                SpanEvent {
                    phase: Phase::FaultDelay,
                    rank: 0,
                    lane: FAULT_LANE,
                    t0: 0.0015,
                    t1: 0.0015,
                    bytes: 64,
                    nnz: 3,
                },
            ],
            dropped: 1,
        }])
    }

    #[test]
    fn chrome_export_is_valid_json_with_expected_fields() {
        let json = chrome_trace_json(&sample());
        validate_json(&json).unwrap();
        for needle in [
            "\"traceEvents\"",
            "\"name\":\"waitall\"",
            "\"name\":\"spmv(local)\"",
            "\"name\":\"fault(delay)\"",
            "\"cat\":\"comm\"",
            "\"cat\":\"compute\"",
            "\"cat\":\"fault\"",
            "\"pid\":0",
            "\"dropped_spans\":1",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn text_timeline_mentions_every_phase() {
        let txt = text_timeline(&sample(), 0, 20);
        let lines: Vec<&str> = txt.lines().collect();
        assert_eq!(
            lines.len(),
            4,
            "comm, compute and fault rows + legend:\n{txt}"
        );
        assert!(lines[0].starts_with("rank 0 comm    |") && lines[0].contains('w'));
        assert!(lines[1].starts_with("rank 0 compute |") && lines[1].contains('L'));
        assert!(lines[2].starts_with("rank 0 fault   |") && lines[2].contains('x'));
        assert!(lines[3].starts_with("legend:") && lines[3].ends_with("x=fault"));
    }

    #[test]
    fn text_timeline_axis_spans_the_rank_and_labels_solver_lane() {
        let span = |lane, phase, t0, t1| SpanEvent {
            phase,
            rank: 3,
            lane,
            t0,
            t1,
            bytes: 0,
            nnz: 0,
        };
        // far from the epoch: the first span still starts in column 0
        let t = RunTrace::from_events(vec![
            span(1, Phase::Gather, 10.0, 11.0),
            span(1, Phase::SpmvFull, 11.0, 12.0),
            span(2, Phase::CgIter, 10.0, 12.0),
        ]);
        let txt = text_timeline(&t, 3, 10);
        let lines: Vec<&str> = txt.lines().collect();
        assert_eq!(lines[0], "rank 3 compute |gggggFFFFF|");
        assert_eq!(lines[1], "rank 3 solver  |iiiiiiiiii|");
        assert!(lines[2].ends_with("i=iteration"));
    }

    #[test]
    fn validator_accepts_and_rejects() {
        for ok in [
            "{}",
            "[]",
            "null",
            "-1.5e-3",
            "\"a\\u00e9\\n\"",
            "{\"a\": [1, 2, {\"b\": true}], \"c\": null}",
            "  [1]  ",
        ] {
            validate_json(ok).unwrap_or_else(|e| panic!("rejected {ok}: {e}"));
        }
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{'a': 1}",
            "01",
            "1.",
            "\"unterminated",
            "[1] trailing",
            "nul",
        ] {
            assert!(validate_json(bad).is_err(), "accepted {bad}");
        }
    }
}
