//! `rexbench --compare <dirA> <dirB>`: for every (metric, workload) pair
//! found in both directories, each side's median and quartiles over its
//! runs, and a verdict against the bound `BENCHMARK.json` sets. Each
//! `*.tsv` file in a directory is one run, as written by `--out`.

use std::collections::BTreeMap;
use std::path::Path;

use crate::stats::{median, quartiles};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Within,
    /// B is worse than A by more than the bound.
    Worse,
    /// The runs spread wider than the bound, so the data cannot tell.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How a metric may move: which direction is better, and by what share
/// of A's median it may get worse.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    pub lower_is_better: bool,
    pub bound: f64,
}

/// Relative spread of one side: quartile distance over the median.
fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// The verdict on B against A. A spread wider than the bound on either
/// side is unresolved, unless every run of B beats every run of A.
pub fn verdict(a: &[f64], b: &[f64], bound: Bound) -> Verdict {
    let better = |x: f64, y: f64| if bound.lower_is_better { x < y } else { x > y };
    if spread(a).max(spread(b)) > bound.bound {
        let b_always_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
        return if b_always_better { Verdict::Within } else { Verdict::Unresolved };
    }
    let (ma, mb) = (median(a), median(b));
    let worse_by = if bound.lower_is_better { mb - ma } else { ma - mb } / ma.abs();
    if worse_by > bound.bound {
        Verdict::Worse
    } else {
        Verdict::Within
    }
}

/// `(workload, metric)` → (unit, one value per run).
type Runs = BTreeMap<(String, String), (String, Vec<f64>)>;

fn read_runs(dir: &Path) -> Result<Runs, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    let mut runs = Runs::new();
    for entry in entries {
        let path = entry.map_err(|e| format!("read {}: {e}", dir.display()))?.path();
        if path.extension().is_none_or(|ext| ext != "tsv") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        for line in text.lines().filter(|l| !l.is_empty()) {
            let fields: Vec<&str> = line.split('\t').collect();
            let [workload, metric, value, unit, ..] = fields[..] else {
                return Err(format!("{}: malformed line {line:?}", path.display()));
            };
            let value: f64 =
                value.parse().map_err(|_| format!("{}: bad value in {line:?}", path.display()))?;
            runs.entry((workload.to_string(), metric.to_string()))
                .or_insert_with(|| (unit.to_string(), Vec::new()))
                .1
                .push(value);
        }
    }
    Ok(runs)
}

/// Bounds of the `end_to_end` metrics of a `BENCHMARK.json` document.
pub fn bounds(benchmark: &str) -> Result<BTreeMap<String, Bound>, String> {
    let doc = Parser::parse(benchmark)?;
    let Some(Json::Arr(metrics)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    metrics
        .iter()
        .map(|m| match (m.get("name"), m.get("better"), m.get("bound")) {
            (Some(Json::Str(name)), Some(Json::Str(better)), Some(Json::Num(bound))) => {
                Ok((name.clone(), Bound { lower_is_better: better == "lower", bound: *bound }))
            }
            _ => Err(format!("end_to_end entry without name, better and bound: {m:?}")),
        })
        .collect()
}

/// Prints the comparison. Returns whether any metric came out worse.
pub fn run(a: &Path, b: &Path, benchmark: &Path) -> Result<bool, String> {
    let text = std::fs::read_to_string(benchmark)
        .map_err(|e| format!("read {}: {e}", benchmark.display()))?;
    let bounds = bounds(&text)?;
    let (runs_a, runs_b) = (read_runs(a)?, read_runs(b)?);
    let show = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        format!("{:.6} [{q1:.6}, {q3:.6}] n={}", median(v), v.len())
    };
    println!("workload\tmetric\tunit\tA median [q1, q3]\tB median [q1, q3]\tchange\tverdict");
    let mut any_worse = false;
    for ((workload, metric), (unit, va)) in &runs_a {
        let Some((_, vb)) = runs_b.get(&(workload.clone(), metric.clone())) else { continue };
        let change = (median(vb) - median(va)) / median(va).abs();
        let verdict = match bounds.get(metric) {
            Some(&bound) => {
                let v = verdict(va, vb, bound);
                any_worse |= v == Verdict::Worse;
                v.name()
            }
            None => "-",
        };
        println!(
            "{workload}\t{metric}\t{unit}\t{}\t{}\t{:+.2}%\t{verdict}",
            show(va),
            show(vb),
            change * 100.0
        );
    }
    Ok(any_worse)
}

/// Just enough JSON to read `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { s: text.as_bytes(), i: 0 };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing characters at byte {}", p.i));
        }
        Ok(v)
    }

    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.i))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
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
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => {
                let start = self.i;
                while self.s.get(self.i).is_some_and(|c| b"+-.eE0123456789".contains(c)) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ASCII digits");
                text.parse().map(Json::Num).map_err(|_| format!("bad number at byte {start}"))
            }
            None => Err("unexpected end of JSON".into()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return Err(format!("expected a string at byte {}", self.i));
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            let c = *self.s.get(self.i).ok_or("unterminated string")?;
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let e = *self.s.get(self.i).ok_or("unterminated escape")?;
                    self.i += 1;
                    let ch = match e {
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u escape")?;
                            self.i += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            char::from_u32(code).unwrap_or('\u{fffd}')
                        }
                        other => other as char,
                    };
                    out.extend_from_slice(ch.encode_utf8(&mut [0; 4]).as_bytes());
                }
                c => out.push(c),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Bound = Bound { lower_is_better: true, bound: 0.1 };

    #[test]
    fn verdicts() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(verdict(&a, &[10.4, 10.5, 10.3, 10.45, 10.4], LOWER), Verdict::Within);
        assert_eq!(verdict(&a, &[11.5, 11.6, 11.4, 11.5, 11.55], LOWER), Verdict::Worse);
        let higher = Bound { lower_is_better: false, ..LOWER };
        assert_eq!(verdict(&a, &[11.5, 11.6, 11.4, 11.5, 11.55], higher), Verdict::Within);
        assert_eq!(verdict(&a, &[8.5, 8.6, 8.4, 8.5, 8.55], higher), Verdict::Worse);
        // Quartiles 19 apart on a median of 10: the data cannot tell.
        let wide = [2.0, 5.0, 10.0, 20.0, 25.0];
        assert_eq!(verdict(&a, &wide, LOWER), Verdict::Unresolved);
        // ... unless every run of B beats every run of A.
        assert_eq!(
            verdict(&[20.0, 40.0, 60.0, 80.0, 99.0], &[1.0, 2.0, 5.0, 9.0, 15.0], LOWER),
            Verdict::Within
        );
    }

    #[test]
    fn reads_bounds_from_benchmark_json() {
        let doc = r#"{"command": ["a", "b"], "run_seconds": 10,
            "end_to_end": [
              {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1},
              {"name": "rate", "unit": "1/s", "better": "higher", "bound": 2.5e-1}
            ],
            "per_layer": [], "note": "tést \"quoted\"", "x": [true, false, null]}"#;
        let b = bounds(doc).unwrap();
        assert_eq!(b["latency_ms"], Bound { lower_is_better: true, bound: 0.1 });
        assert_eq!(b["rate"], Bound { lower_is_better: false, bound: 0.25 });
        assert_eq!(
            Parser::parse(doc).unwrap().get("note"),
            Some(&Json::Str("tést \"quoted\"".into()))
        );
        assert!(Parser::parse("{\"a\": 1,}").is_err());
        assert!(Parser::parse("[1, 2").is_err());
    }
}
