//! Smoke mode: every workload, untraced and traced, on a short run of two
//! rounds with a small preload. The binary itself fails a smoke run whose
//! output checks fail or that misses a metric; this test also holds the
//! emitted names to the lists in `BENCHMARK.json`.

use std::path::Path;
use std::process::Command;

/// Just enough JSON for `BENCHMARK.json` and the result line.
#[derive(Debug, PartialEq)]
enum Json {
    Object(Vec<(String, Json)>),
    Array(Vec<Json>),
    Str(String),
    Num(f64),
    Bool(bool),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Object(pairs) => {
                &pairs
                    .iter()
                    .find(|(k, _)| k == key)
                    .unwrap_or_else(|| panic!("no {key}"))
                    .1
            }
            _ => panic!("not an object"),
        }
    }

    fn keys(&self) -> Vec<String> {
        match self {
            Json::Object(pairs) => pairs.iter().map(|(k, _)| k.clone()).collect(),
            _ => panic!("not an object"),
        }
    }

    fn names(&self) -> Vec<String> {
        match self {
            Json::Array(items) => items
                .iter()
                .map(|m| match m.get("name") {
                    Json::Str(s) => s.clone(),
                    _ => panic!("name is not a string"),
                })
                .collect(),
            _ => panic!("not an array"),
        }
    }
}

fn parse(s: &str) -> Json {
    fn ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && b[*i].is_ascii_whitespace() {
            *i += 1;
        }
    }
    fn string(b: &[u8], i: &mut usize) -> String {
        *i += 1;
        let start = *i;
        while b[*i] != b'"' {
            *i += if b[*i] == b'\\' { 2 } else { 1 };
        }
        *i += 1;
        String::from_utf8_lossy(&b[start..*i - 1]).into_owned()
    }
    fn value(b: &[u8], i: &mut usize) -> Json {
        ws(b, i);
        match b[*i] {
            b'{' | b'[' => {
                let object = b[*i] == b'{';
                *i += 1;
                let (mut pairs, mut items) = (Vec::new(), Vec::new());
                loop {
                    ws(b, i);
                    if b[*i] == b'}' || b[*i] == b']' {
                        *i += 1;
                        break;
                    }
                    if object {
                        let k = string(b, i);
                        ws(b, i);
                        *i += 1;
                        pairs.push((k, value(b, i)));
                    } else {
                        items.push(value(b, i));
                    }
                    ws(b, i);
                    if b[*i] == b',' {
                        *i += 1;
                    }
                }
                if object {
                    Json::Object(pairs)
                } else {
                    Json::Array(items)
                }
            }
            b'"' => Json::Str(string(b, i)),
            b't' | b'f' => {
                let t = b[*i] == b't';
                *i += if t { 4 } else { 5 };
                Json::Bool(t)
            }
            _ => {
                let start = *i;
                while *i < b.len()
                    && (b[*i] == b'-' || b[*i] == b'.' || b[*i] == b'e' || b[*i].is_ascii_digit())
                {
                    *i += 1;
                }
                Json::Num(
                    std::str::from_utf8(&b[start..*i])
                        .unwrap()
                        .parse()
                        .expect("number"),
                )
            }
        }
    }
    value(s.as_bytes(), &mut 0)
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark sits in the repository");
    let doc = parse(&std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json"));
    let workloads = doc.get("workloads").names();
    assert_eq!(workloads, ["ingest", "read_cold", "mixed_churn"]);
    for workload in &workloads {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_shardstore-nodebench"))
                .current_dir(root)
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "7",
                    "--seconds",
                    "2",
                    "--trace",
                    trace,
                    "--smoke",
                ])
                .output()
                .expect("benchmark runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            // Smoke runs end a round at every slice boundary.
            assert!(
                stdout.contains("  rounds: 2 "),
                "{workload} trace {trace}:\n{stdout}"
            );
            let result = parse(stdout.lines().last().expect("a result line"));
            assert_eq!(result.get("correct"), &Json::Bool(true), "{stdout}");
            assert_eq!(result.get("failed"), &Json::Num(0.0));
            assert_eq!(
                result.get("metrics").keys(),
                doc.get(list).names(),
                "{workload} trace {trace}"
            );
        }
    }
}
