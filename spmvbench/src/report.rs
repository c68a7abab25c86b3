//! The machine-readable result: a small JSON value type with a compact
//! writer and a parser, and the [`Report`] every run produces.
//!
//! Numbers are written with Rust's shortest round-trip formatting, so a
//! result file read back gives bit-identical values.

use std::fmt::Write as _;

/// A JSON value. Object keys keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// The field `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Compact single-line JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(v) if v.is_finite() => {
                write!(out, "{v}").expect("writing to a String cannot fail")
            }
            Value::Num(_) => out.push_str("null"),
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing data at byte {}", p.i));
        }
        Ok(v)
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> Result<(), String> {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(format!("expected `{lit}` at byte {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        match self.s.get(self.i) {
            None => Err("unexpected end of input".into()),
            Some(b'n') => self.eat("null").map(|()| Value::Null),
            Some(b't') => self.eat("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at byte {}", self.i)),
                    }
                }
            }
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.ws();
                    self.eat(":")?;
                    fields.push((k, self.value()?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Value::Obj(fields));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {}", self.i)),
                    }
                }
            }
            Some(_) => self.number(),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat("\"")?;
        let mut out = String::new();
        loop {
            let rest = std::str::from_utf8(&self.s[self.i..]).map_err(|e| e.to_string())?;
            let mut chars = rest.chars();
            let c = chars.next().ok_or("unterminated string")?;
            self.i += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let e = chars.next().ok_or("unterminated escape")?;
                    self.i += 1;
                    match e {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'n' => out.push('\n'),
                        't' => out.push('\t'),
                        'r' => out.push('\r'),
                        'u' => {
                            let hex = rest.get(2..6).ok_or("short \\u escape")?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                            self.i += 4;
                        }
                        other => return Err(format!("unknown escape \\{other}")),
                    }
                }
                c => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        while self.i < self.s.len() && b"+-0123456789.eE".contains(&self.s[self.i]) {
            self.i += 1;
        }
        let tok = std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?;
        tok.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number `{tok}` at byte {start}"))
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    /// Every correctness check passed and nothing failed.
    pub correct: bool,
    /// SpMVs and solves issued (timed loops plus correctness checks).
    pub attempted: u64,
    /// Of those, the ones that returned `Err` or failed a check.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Host fingerprint, layout, sample counts and other context.
    pub context: Vec<(String, Value)>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: &str, unit: &str, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            unit: unit.into(),
            value,
        });
    }

    /// The value of metric `name`, if reported.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    fn metrics_value(&self) -> Value {
        Value::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    let v = Value::Obj(vec![
                        ("value".into(), Value::Num(m.value)),
                        ("unit".into(), Value::str(&m.unit)),
                    ]);
                    (m.name.clone(), v)
                })
                .collect(),
        )
    }

    /// The one-line summary printed last on standard output.
    pub fn summary_line(&self) -> String {
        Value::Obj(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::Num(self.attempted as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            ("metrics".into(), self.metrics_value()),
        ])
        .render()
    }

    /// The full result document.
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("workload".into(), Value::str(&self.workload)),
            ("seed".into(), Value::Num(self.seed as f64)),
            ("trace".into(), Value::Bool(self.trace)),
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::Num(self.attempted as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            ("metrics".into(), self.metrics_value()),
            ("context".into(), Value::Obj(self.context.clone())),
        ])
    }

    /// Reads a result document back.
    pub fn from_value(v: &Value) -> Result<Report, String> {
        let field = |k: &str| v.get(k).ok_or(format!("missing `{k}`"));
        let num = |k: &str| match field(k)? {
            Value::Num(n) => Ok(*n),
            _ => Err(format!("`{k}` is not a number")),
        };
        let boolean = |k: &str| match field(k)? {
            Value::Bool(b) => Ok(*b),
            _ => Err(format!("`{k}` is not a bool")),
        };
        let Value::Str(workload) = field("workload")? else {
            return Err("`workload` is not a string".into());
        };
        let Value::Obj(metric_fields) = field("metrics")? else {
            return Err("`metrics` is not an object".into());
        };
        let metrics = metric_fields
            .iter()
            .map(|(name, m)| match (m.get("value"), m.get("unit")) {
                (Some(Value::Num(value)), Some(Value::Str(unit))) => Ok(Metric {
                    name: name.clone(),
                    unit: unit.clone(),
                    value: *value,
                }),
                _ => Err(format!("metric `{name}` needs a numeric value and a unit")),
            })
            .collect::<Result<Vec<_>, String>>()?;
        let Value::Obj(context) = field("context")? else {
            return Err("`context` is not an object".into());
        };
        Ok(Report {
            workload: workload.clone(),
            seed: num("seed")? as u64,
            trace: boolean("trace")?,
            correct: boolean("correct")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            metrics,
            context: context.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report {
            workload: "hmep-spmv".into(),
            seed: 7,
            trace: false,
            correct: true,
            attempted: 1234,
            failed: 0,
            metrics: Vec::new(),
            context: vec![
                ("cpu".into(), Value::str("Xeon \"quoted\"\tname")),
                (
                    "kernels".into(),
                    Value::Arr(vec![Value::str("csr-scalar"), Value::Null]),
                ),
                (
                    "nested".into(),
                    Value::Obj(vec![("x".into(), Value::Bool(false))]),
                ),
            ],
        };
        r.metric("spmv_s", "s", 0.019_873_412_345_678_9);
        r.metric("setup_s", "s", 1.0 / 3.0);
        r.metric("engine_mb", "MB", 531.25e0);
        r.metric("tiny", "s", 3.5e-9);
        r
    }

    #[test]
    fn result_file_round_trips_bit_exactly() {
        let r = sample();
        let text = r.to_value().render();
        let back = Report::from_value(&Value::parse(&text).expect("parses")).expect("reads");
        assert_eq!(back, r);
        for (a, b) in back.metrics.iter().zip(&r.metrics) {
            assert_eq!(a.value.to_bits(), b.value.to_bits());
        }
    }

    #[test]
    fn summary_line_has_exactly_the_four_summary_keys() {
        let line = sample().summary_line();
        assert!(!line.contains('\n'));
        let v = Value::parse(&line).expect("parses");
        let Value::Obj(fields) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let spmv = v
            .get("metrics")
            .and_then(|m| m.get("spmv_s"))
            .expect("metric");
        assert_eq!(spmv.get("unit"), Some(&Value::str("s")));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(Value::parse("{\"a\": }").is_err());
        assert!(Value::parse("[1, 2").is_err());
        assert!(Value::parse("{} x").is_err());
        assert!(Report::from_value(&Value::parse("{}").expect("parses")).is_err());
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Value::Num(f64::NAN).render(), "null");
        assert_eq!(
            Value::parse("[1e-3, -2]").expect("parses").render(),
            "[0.001, -2]"
        );
    }
}
