//! Runs the smoke suite and checks that what it emits, the metric
//! tables and the root `BENCHMARK.json` name the same workloads and
//! metrics, so the names later issues cite cannot drift.

use mpquic_perf::report::{manifest_json, END_TO_END, PER_LAYER};
use mpquic_perf::spec::{self, catalogue};
use std::collections::{BTreeMap, BTreeSet};
use std::process::Command;

/// A JSON value; just enough of a parser to read our own output.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

struct Parser<'a> {
    text: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_space(&mut self) {
        while self.text.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) {
        self.skip_space();
        assert_eq!(self.text.get(self.at), Some(&byte), "at byte {}", self.at);
        self.at += 1;
    }

    fn peek(&mut self) -> u8 {
        self.skip_space();
        self.text[self.at]
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = Vec::new();
        loop {
            let byte = self.text[self.at];
            self.at += 1;
            match byte {
                b'"' => return String::from_utf8(out).unwrap(),
                b'\\' => {
                    out.push(self.text[self.at]);
                    self.at += 1;
                }
                other => out.push(other),
            }
        }
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut map = BTreeMap::new();
                while self.peek() != b'}' {
                    let key = self.string();
                    self.eat(b':');
                    map.insert(key, self.value());
                    if self.peek() == b',' {
                        self.eat(b',');
                    }
                }
                self.eat(b'}');
                Json::Obj(map)
            }
            b'[' => {
                self.eat(b'[');
                let mut items = Vec::new();
                while self.peek() != b']' {
                    items.push(self.value());
                    if self.peek() == b',' {
                        self.eat(b',');
                    }
                }
                self.eat(b']');
                Json::Arr(items)
            }
            b'"' => Json::Str(self.string()),
            _ => {
                let start = self.at;
                while self.at < self.text.len() && !b",]} \n".contains(&self.text[self.at]) {
                    self.at += 1;
                }
                match std::str::from_utf8(&self.text[start..self.at]).unwrap() {
                    "null" => Json::Null,
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    number => Json::Num(number.parse().expect("a JSON number")),
                }
            }
        }
    }
}

fn parse(text: &str) -> Json {
    let mut parser = Parser {
        text: text.as_bytes(),
        at: 0,
    };
    let value = parser.value();
    parser.skip_space();
    assert_eq!(parser.at, text.len(), "trailing bytes after JSON");
    value
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(map) => map.get(key).unwrap_or_else(|| panic!("no key {key:?}")),
            other => panic!("{key:?} asked of {other:?}"),
        }
    }

    fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn keys(&self) -> BTreeSet<String> {
        match self {
            Json::Obj(map) => map.keys().cloned().collect(),
            other => panic!("not an object: {other:?}"),
        }
    }
}

fn names(list: &Json) -> BTreeSet<String> {
    list.items()
        .iter()
        .map(|item| item.get("name").str().to_string())
        .collect()
}

#[test]
fn smoke_emits_exactly_the_names_benchmark_json_lists() {
    let manifest_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let manifest_text = std::fs::read_to_string(manifest_path).expect("root BENCHMARK.json");
    assert!(
        manifest_text == manifest_json(),
        "BENCHMARK.json is stale: regenerate it with `mpquic-perf manifest`"
    );
    let manifest = parse(&manifest_text);
    assert_eq!(
        manifest.keys(),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
        .map(String::from)
        .into()
    );
    assert_eq!(
        manifest.get("run_seconds"),
        &Json::Num(spec::RUN_SECONDS as f64)
    );

    let started = std::time::Instant::now();
    let output = Command::new(env!("CARGO_BIN_EXE_mpquic-perf"))
        .args(["run", "--smoke", "--seed", "5"])
        .output()
        .expect("run the smoke");
    let took = started.elapsed();
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(
        output.status.success(),
        "smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    // Budget: 15 s on the 2-core reference box (about 9 s there); the
    // assertion leaves room for a loaded CI runner.
    assert!(took.as_secs() < 45, "smoke took {took:?}");
    assert!(stdout.contains("link loopback"), "loopback caveat missing");
    let record = parse(stdout.lines().last().expect("smoke printed a record"));
    assert_eq!(record.get("claim"), &Json::Null);
    for key in [
        "nproc",
        "kernel",
        "backend_auto",
        "git_commit",
        "rustc",
        "window_s",
        "windows",
        "link",
        "peak_rss_kib",
    ] {
        record.get("env").get(key);
    }

    let e2e: BTreeSet<String> = END_TO_END.iter().map(|d| d.name.to_string()).collect();
    let layers: BTreeSet<String> = PER_LAYER.iter().map(|d| d.name.to_string()).collect();
    let workloads: BTreeSet<String> = catalogue(true).iter().map(|w| w.name.to_string()).collect();
    assert_eq!(names(manifest.get("end_to_end")), e2e);
    assert_eq!(names(manifest.get("per_layer")), layers);
    assert_eq!(names(manifest.get("workloads")), workloads);
    assert!(e2e.contains("setup_s"));

    let emitted = record.get("workloads").items();
    let emitted_names: BTreeSet<String> = emitted
        .iter()
        .map(|w| w.get("workload").str().to_string())
        .collect();
    assert_eq!(emitted_names, workloads);
    for workload in emitted {
        let name = workload.get("workload").str();
        assert_eq!(workload.get("correct"), &Json::Bool(true), "{name}");
        assert_eq!(workload.get("failed"), &Json::Num(0.0), "{name}");
        assert_eq!(workload.get("end_to_end").keys(), e2e, "{name}");
        assert_eq!(workload.get("per_layer").keys(), layers, "{name}");
    }
    // The pre-registered idle512 deltas and the full ladder are there.
    assert_eq!(
        record.get("idle512_minus_rpc_open").keys(),
        ["p50_us", "server_cpu_us_per_op"].map(String::from).into()
    );
    assert!(!record.get("ladder").keys().is_empty());
    assert_eq!(record.get("per_layer_moves").keys(), layers);

    // The rate the open-loop workloads run at is the one their reason names.
    let rate = format!("{} ops/s", spec::RPC_OPEN_RATE);
    let why = spec::by_name("rpc-open", false).unwrap().why;
    assert!(why.contains(&rate), "{why:?} does not name {rate}");
}
