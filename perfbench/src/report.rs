//! The run report: the host stamp, the workload's shape, per-phase
//! request accounting, every named metric with its unit, and the
//! layer-sum lines. Written as JSON next to the spans; `compare` reads
//! two of them back.

use crate::host::HostStamp;
use crate::stats::Phase;
use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit: unit.into(),
        }
    }
}

/// Threads, pool workers and connections a workload uses; each must
/// stay within the host's `nproc`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    pub threads: usize,
    pub workers: usize,
    pub connections: usize,
}

impl Shape {
    /// Names of the dimensions that exceed `nproc`.
    pub fn over(&self, nproc: usize) -> Vec<&'static str> {
        [
            ("threads", self.threads),
            ("workers", self.workers),
            ("connections", self.connections),
        ]
        .into_iter()
        .filter(|&(_, n)| n > nproc)
        .map(|(name, _)| name)
        .collect()
    }
}

#[derive(Debug, Clone)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub host: HostStamp,
    pub shape: Shape,
    pub phases: Vec<Phase>,
    pub metrics: Vec<Metric>,
    pub layer_sums: Vec<String>,
}

impl Report {
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The human-readable block printed ahead of the result line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let h = &self.host;
        let _ = writeln!(
            out,
            "host: nproc={} cpu=\"{}\" rev={} {}",
            h.nproc, h.cpu_model, h.git_rev, h.rustc
        );
        let _ = writeln!(
            out,
            "workload {} seed={} seconds={} trace={}: threads={} workers={} connections={}",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.trace),
            self.shape.threads,
            self.shape.workers,
            self.shape.connections
        );
        let over = self.shape.over(h.nproc);
        if !over.is_empty() {
            let _ = writeln!(
                out,
                "WARNING: {} exceed nproc = {}",
                over.join(", "),
                h.nproc
            );
        }
        for p in &self.phases {
            let _ = writeln!(
                out,
                "phase {:<12} attempted={} succeeded={} overloaded={} error={} client_error={}",
                p.name, p.attempted, p.succeeded, p.overloaded, p.error, p.client_error
            );
        }
        for m in &self.metrics {
            let _ = writeln!(out, "metric {:<28} {:>16.6} {}", m.name, m.value, m.unit);
        }
        for line in &self.layer_sums {
            let _ = writeln!(out, "layer-sum {line}");
        }
        out
    }

    pub fn to_json(&self) -> String {
        let h = &self.host;
        let phases: Vec<String> = self
            .phases
            .iter()
            .map(|p| {
                format!(
                    "{{\"name\":{},\"attempted\":{},\"succeeded\":{},\"overloaded\":{},\"error\":{},\"client_error\":{}}}",
                    quote(&p.name), p.attempted, p.succeeded, p.overloaded, p.error, p.client_error
                )
            })
            .collect();
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    quote(&m.name),
                    number(m.value),
                    quote(&m.unit)
                )
            })
            .collect();
        let sums: Vec<String> = self.layer_sums.iter().map(|s| quote(s)).collect();
        format!(
            "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\
             \"host\":{{\"nproc\":{},\"cpu_model\":{},\"git_rev\":{},\"rustc\":{}}},\
             \"shape\":{{\"threads\":{},\"workers\":{},\"connections\":{}}},\
             \"phases\":[{}],\"metrics\":{{{}}},\"layer_sums\":[{}]}}",
            quote(&self.workload),
            self.seed,
            self.seconds,
            self.trace,
            h.nproc,
            quote(&h.cpu_model),
            quote(&h.git_rev),
            quote(&h.rustc),
            self.shape.threads,
            self.shape.workers,
            self.shape.connections,
            phases.join(","),
            metrics.join(","),
            sums.join(",")
        )
    }

    pub fn from_json(text: &str) -> Result<Report, String> {
        let v = json::parse(text)?;
        let host = v.get("host")?;
        let shape = v.get("shape")?;
        let phases = v
            .get("phases")?
            .array()?
            .iter()
            .map(|p| {
                Ok(Phase {
                    name: p.get("name")?.string()?.to_string(),
                    attempted: p.get("attempted")?.num()? as u64,
                    succeeded: p.get("succeeded")?.num()? as u64,
                    overloaded: p.get("overloaded")?.num()? as u64,
                    error: p.get("error")?.num()? as u64,
                    client_error: p.get("client_error")?.num()? as u64,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let metrics = v
            .get("metrics")?
            .object()?
            .iter()
            .map(|(name, m)| {
                Ok(Metric {
                    name: name.clone(),
                    value: m.get("value")?.num()?,
                    unit: m.get("unit")?.string()?.to_string(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let layer_sums = v
            .get("layer_sums")?
            .array()?
            .iter()
            .map(|s| s.string().map(str::to_string))
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Report {
            workload: v.get("workload")?.string()?.to_string(),
            seed: v.get("seed")?.num()? as u64,
            seconds: v.get("seconds")?.num()? as u64,
            trace: v.get("trace")?.boolean()?,
            host: HostStamp {
                nproc: host.get("nproc")?.num()? as usize,
                cpu_model: host.get("cpu_model")?.string()?.to_string(),
                git_rev: host.get("git_rev")?.string()?.to_string(),
                rustc: host.get("rustc")?.string()?.to_string(),
            },
            shape: Shape {
                threads: shape.get("threads")?.num()? as usize,
                workers: shape.get("workers")?.num()? as usize,
                connections: shape.get("connections")?.num()? as usize,
            },
            phases,
            metrics,
            layer_sums,
        })
    }
}

/// The verdict of a layer-sum line: the named layers either account for
/// the end-to-end figure within 10%, or the residual is the named gap.
pub fn within_or_gap(named: f64, total: f64, gap: &str) -> String {
    if total > 0.0 && (named / total - 1.0).abs() <= 0.10 {
        " (within 10%)".into()
    } else {
        format!(" (outside 10%: the residual is {gap})")
    }
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives (non-finite values have no JSON form and become 0).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Compare two reports of the same workload: refuse different hosts,
/// flag shapes above `nproc`, and print each metric's change.
pub fn compare(base: &Report, new: &Report) -> Result<String, String> {
    if let Some(why) = base.host.mismatch(&new.host) {
        return Err(format!(
            "refusing to compare reports from different hosts: {why}"
        ));
    }
    if base.workload != new.workload || base.trace != new.trace {
        return Err(format!(
            "refusing to compare workload {} (trace={}) with {} (trace={})",
            base.workload, base.trace, new.workload, new.trace
        ));
    }
    let mut out = String::new();
    for (label, r) in [("base", base), ("new", new)] {
        let over = r.shape.over(r.host.nproc);
        if !over.is_empty() {
            let _ = writeln!(
                out,
                "FLAG {label}: {} exceed nproc = {}",
                over.join(", "),
                r.host.nproc
            );
        }
    }
    let _ = writeln!(
        out,
        "{} : {} -> {}",
        base.workload, base.host.git_rev, new.host.git_rev
    );
    for m in &base.metrics {
        let Some(n) = new.metric(&m.name) else {
            let _ = writeln!(out, "{:<28} missing in new report", m.name);
            continue;
        };
        let change = if m.value == 0.0 {
            String::from("n/a")
        } else {
            format!("{:+.1}%", (n.value / m.value - 1.0) * 100.0)
        };
        let _ = writeln!(
            out,
            "{:<28} {:>14.6} -> {:>14.6} {:<8} {}",
            m.name, m.value, n.value, m.unit, change
        );
    }
    Ok(out)
}

/// A small JSON reader, enough for the benchmark's own reports and
/// `BENCHMARK.json`.
pub mod json {
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
        pub fn get(&self, key: &str) -> Result<&Value, String> {
            self.object()?
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing key {key}"))
        }
        pub fn object(&self) -> Result<&[(String, Value)], String> {
            match self {
                Value::Obj(o) => Ok(o),
                other => Err(format!("expected object, got {other:?}")),
            }
        }
        pub fn array(&self) -> Result<&[Value], String> {
            match self {
                Value::Arr(a) => Ok(a),
                other => Err(format!("expected array, got {other:?}")),
            }
        }
        pub fn string(&self) -> Result<&str, String> {
            match self {
                Value::Str(s) => Ok(s),
                other => Err(format!("expected string, got {other:?}")),
            }
        }
        pub fn num(&self) -> Result<f64, String> {
            match self {
                Value::Num(n) => Ok(*n),
                other => Err(format!("expected number, got {other:?}")),
            }
        }
        pub fn boolean(&self) -> Result<bool, String> {
            match self {
                Value::Bool(b) => Ok(*b),
                other => Err(format!("expected bool, got {other:?}")),
            }
        }
    }

    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing input at byte {}", p.i));
        }
        Ok(v)
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

        fn eat(&mut self, b: u8) -> Result<(), String> {
            self.ws();
            if self.s.get(self.i) == Some(&b) {
                self.i += 1;
                Ok(())
            } else {
                Err(format!("expected '{}' at byte {}", b as char, self.i))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            self.ws();
            match self.s.get(self.i) {
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
                        let key = self.string()?;
                        self.eat(b':')?;
                        fields.push((key, self.value()?));
                        self.ws();
                        match self.s.get(self.i) {
                            Some(b',') => self.i += 1,
                            Some(b'}') => {
                                self.i += 1;
                                return Ok(Value::Obj(fields));
                            }
                            _ => return Err(format!("bad object at byte {}", self.i)),
                        }
                    }
                }
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
                            _ => return Err(format!("bad array at byte {}", self.i)),
                        }
                    }
                }
                Some(b'"') => Ok(Value::Str(self.string()?)),
                Some(b't') => self.word("true", Value::Bool(true)),
                Some(b'f') => self.word("false", Value::Bool(false)),
                Some(b'n') => self.word("null", Value::Null),
                Some(_) => {
                    let start = self.i;
                    while self.i < self.s.len()
                        && matches!(
                            self.s[self.i],
                            b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                        )
                    {
                        self.i += 1;
                    }
                    std::str::from_utf8(&self.s[start..self.i])
                        .ok()
                        .and_then(|t| t.parse().ok())
                        .map(Value::Num)
                        .ok_or_else(|| format!("bad number at byte {start}"))
                }
                None => Err("unexpected end of input".into()),
            }
        }

        fn word(&mut self, w: &str, v: Value) -> Result<Value, String> {
            if self.s[self.i..].starts_with(w.as_bytes()) {
                self.i += w.len();
                Ok(v)
            } else {
                Err(format!("bad literal at byte {}", self.i))
            }
        }

        fn string(&mut self) -> Result<String, String> {
            if self.s.get(self.i) != Some(&b'"') {
                return Err(format!("expected string at byte {}", self.i));
            }
            self.i += 1;
            let mut out = Vec::new();
            while let Some(&b) = self.s.get(self.i) {
                self.i += 1;
                match b {
                    b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                    b'\\' => {
                        let esc = *self.s.get(self.i).ok_or("truncated escape")?;
                        self.i += 1;
                        match esc {
                            b'n' => out.push(b'\n'),
                            b't' => out.push(b'\t'),
                            b'r' => out.push(b'\r'),
                            b'u' => {
                                let hex = self
                                    .s
                                    .get(self.i..self.i + 4)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                                    .and_then(char::from_u32)
                                    .ok_or("bad \\u escape")?;
                                self.i += 4;
                                let mut buf = [0u8; 4];
                                out.extend_from_slice(hex.encode_utf8(&mut buf).as_bytes());
                            }
                            other => out.push(other),
                        }
                    }
                    b => out.push(b),
                }
            }
            Err("unterminated string".into())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(nproc: usize, value: f64) -> Report {
        Report {
            workload: "fit".into(),
            seed: 3,
            seconds: 5,
            trace: false,
            host: HostStamp {
                nproc,
                cpu_model: "cpu \"x\"".into(),
                git_rev: "abc".into(),
                rustc: "rustc 1.0".into(),
            },
            shape: Shape {
                threads: 2,
                workers: 0,
                connections: 0,
            },
            phases: vec![Phase::new("fit")],
            metrics: vec![Metric {
                name: "p50_ms".into(),
                value,
                unit: "ms".into(),
            }],
            layer_sums: vec!["fit: ok".into()],
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = sample(2, 1.25);
        let back = Report::from_json(&r.to_json()).unwrap();
        assert_eq!(back.host, r.host);
        assert_eq!(back.metrics, r.metrics);
        assert_eq!(back.shape, r.shape);
        assert_eq!(back.layer_sums, r.layer_sums);
    }

    #[test]
    fn compare_refuses_other_hosts_and_flags_oversubscription() {
        assert!(compare(&sample(2, 1.0), &sample(4, 1.0))
            .unwrap_err()
            .contains("nproc 2 vs 4"));
        let out = compare(&sample(1, 1.0), &sample(1, 1.1)).unwrap();
        assert!(out.contains("FLAG base: threads exceed nproc = 1"), "{out}");
        assert!(out.contains("+10.0%"), "{out}");
    }
}
