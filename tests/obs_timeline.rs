//! The obs flight recorder end to end: a forced delegation timeout and a
//! forced quarantine entry must each auto-dump a replayable JSON timeline
//! whose spans cover the delegated op pipeline, and every JSON emitter on
//! the observability path must produce output a real parser accepts (the
//! workspace hand-rolls its JSON, so this is the regression net for it).
#![cfg(feature = "obs")]

use std::sync::Arc;

use arckfs::attack::{run_attack, Attack};
use arckfs::{ArckFs, ArckFsConfig};
use trio_fsapi::{read_file, write_file, FileSystem, Mode, OpenFlags};
use trio_kernel::delegation::DelegationError;
use trio_kernel::{KernelConfig, KernelController, RetryPolicy};
use trio_nvm::{DeviceConfig, NvmDevice, PathStats, Topology};
use trio_sim::{SimRuntime, MILLIS};

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON parser (test-local; the workspace is
// dependency-free, so the emitters can't be checked against serde).
// ---------------------------------------------------------------------------

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
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// An object's keys (none for any other value).
    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(kv) => kv.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("expected string, got {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("expected number, got {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("expected array, got {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn parse(text: &'a str) -> Result<Json, String> {
        let mut p = Parser { s: text.as_bytes(), pos: 0 };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.s.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.s.len() && self.s[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.s.get(self.pos).copied().ok_or_else(|| "unexpected end of input".into())
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek()? != c {
            return Err(format!("expected `{}` at byte {}", c as char, self.pos));
        }
        self.pos += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self.pos < self.s.len()
            && matches!(self.s[self.pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.s[start..self.pos])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.s.get(self.pos).copied().ok_or("unterminated string")? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.s.get(self.pos).copied().ok_or("bad escape")?;
                    out.push(match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b't' => '\t',
                        other => return Err(format!("unsupported escape \\{}", other as char)),
                    });
                    self.pos += 1;
                }
                c => {
                    out.push(c as char);
                    self.pos += 1;
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut kv = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Obj(kv));
        }
        loop {
            let k = self.string()?;
            self.eat(b':')?;
            kv.push((k, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Obj(kv));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut v = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            v.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Arr(v));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Timeline scenarios
// ---------------------------------------------------------------------------

/// `(kind, stage, phase)` triples present in a dumped timeline.
fn span_set(timeline: &Json) -> Vec<(String, String, String)> {
    timeline
        .get("events")
        .expect("events key")
        .arr()
        .iter()
        .map(|e| {
            (
                e.get("kind").unwrap().str().to_string(),
                e.get("stage").unwrap().str().to_string(),
                e.get("phase").unwrap().str().to_string(),
            )
        })
        .collect()
}

fn assert_span(spans: &[(String, String, String)], kind: &str, stage: &str, phase: &str) {
    assert!(
        spans.iter().any(|(k, s, p)| k == kind && s == stage && p == phase),
        "timeline missing {kind}/{stage}/{phase}; got {spans:?}"
    );
}

/// Asserts every numa-transfer span in the timeline has width: its open
/// is stamped when the transfer starts, before its close. A worker writes
/// the two events back to back, so a close's open is the event before it.
fn assert_transfers_open_before_close(timeline: &Json) {
    let events = timeline.get("events").expect("events key").arr();
    let field = |e: &Json, k: &str| e.get(k).unwrap().str().to_string();
    let mut spans = 0;
    for w in events.windows(2) {
        let (open, close) = (&w[0], &w[1]);
        if field(close, "stage") != "numa-transfer" || field(close, "phase") != "close" {
            continue;
        }
        assert_eq!(field(open, "stage"), "numa-transfer");
        assert_eq!(field(open, "phase"), "open");
        let op = close.get("op").unwrap().num();
        assert_eq!(open.get("op").unwrap().num(), op);
        let t_open = open.get("t_ns").unwrap().num();
        let t_close = close.get("t_ns").unwrap().num();
        assert!(t_open < t_close, "op {op}: numa-transfer opens at {t_open}, closes at {t_close}");
        spans += 1;
    }
    assert!(spans > 0, "timeline holds no numa-transfer span");
}

/// Scenario A's world at seed 7, driving the pool directly (the LibFS
/// layer would fall back and emit a `delegation-fallback` dump on top): one
/// healthy 64 KiB delegated write for the full submit → service → reply
/// span chain, then — with `then_wedge` — a total-wedge drop fault so the
/// next op times out and auto-dumps.
fn delegated_write(then_wedge: bool) {
    let dev = Arc::new(NvmDevice::new(DeviceConfig {
        topology: Topology::new(2, 32 * 1024),
        ..DeviceConfig::small()
    }));
    let kernel = KernelController::format(Arc::clone(&dev), KernelConfig::default());
    let rt = SimRuntime::new(7);
    let k = Arc::clone(&kernel);
    rt.spawn("main", move || {
        k.delegation().start();
        let reg = k.register_libfs(1000, 1000);
        let pages = k.alloc_pages(reg.actor, 32, Some(0)).unwrap();
        let data = vec![0xEEu8; 64 * 1024];
        // Stand in for the syscall layer: give the op a real span id
        // so the worker events stitch to it.
        trio_obs::set_current_op(trio_obs::next_op_id());
        k.delegation()
            .try_write_extent(
                reg.actor,
                &pages,
                0,
                &data,
                &RetryPolicy::new(5 * MILLIS, 0, 2, 40 * MILLIS),
            )
            .unwrap();
        if then_wedge {
            k.delegation().inject_faults(0, 0, 1); // Drop 1-in-1: wedge.
            let r = k.delegation().try_write_extent(
                reg.actor,
                &pages,
                0,
                &data,
                &RetryPolicy::new(MILLIS, 0, 1, 8 * MILLIS),
            );
            assert_eq!(r, Err(DelegationError::Timeout));
        }
        trio_obs::set_current_op(0);
        k.delegation().shutdown();
    });
    rt.run();
}

/// One test fn for all three scenarios: the dump path (env override + the
/// once-per-trigger latches), the recorder and the op-id counter are
/// process-global state, so the stories must run in a controlled order,
/// with a reset in between.
#[test]
fn forced_failures_auto_dump_replayable_timelines() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("obs-timeline-test.json");
    std::env::set_var("TRIO_OBS_TIMELINE", &path);
    let _ = std::fs::remove_file(&path);

    // --- Scenario A: forced delegation timeout. ---------------------------
    trio_obs::reset();
    delegated_write(true);
    let text = std::fs::read_to_string(&path).expect("timeout must auto-dump a timeline");
    let timeline = Parser::parse(&text).expect("timeline must be valid JSON");
    assert_eq!(timeline.get("trigger").unwrap().str(), "delegation-timeout");
    assert!(timeline.get("events_recorded").unwrap().num() > 0.0);
    let spans = span_set(&timeline);
    // The healthy op's full pipeline: submit, worker service, NVM
    // transfer, reply — all present in the recorder at dump time.
    assert_span(&spans, "write", "ring-hop", "open");
    assert_span(&spans, "write", "worker-service", "open");
    assert_span(&spans, "write", "worker-service", "close");
    assert_span(&spans, "write", "numa-transfer", "close");
    assert_span(&spans, "write", "ring-hop", "close");
    assert_transfers_open_before_close(&timeline);
    // Stage histograms rode along and parse as objects with percentiles.
    let stages = timeline.get("stages").expect("stages key");
    let hop = stages.get("write/ring-hop").expect("ring-hop histogram");
    assert!(hop.get("count").unwrap().num() >= 1.0);
    assert!(hop.get("p50_ns").unwrap().num() >= 0.0);

    // --- Scenario B: forced quarantine entry. -----------------------------
    // The sharing-and-attacks story with delegation live: alice's 64 KiB
    // report is written through the pool, mallory corrupts its index
    // chain, and the verifier walk on alice's next map quarantines her —
    // dumping a timeline that spans syscalls, the ring, and the walk.
    trio_obs::reset();
    let _ = std::fs::remove_file(&path);
    {
        let dev = Arc::new(NvmDevice::new(DeviceConfig {
            topology: Topology::new(1, 32 * 1024),
            ..DeviceConfig::small()
        }));
        let kernel = KernelController::format(Arc::clone(&dev), KernelConfig::default());
        let alice = ArckFs::mount(Arc::clone(&kernel), 1001, 1001, ArckFsConfig::default());
        let mallory = ArckFs::mount(Arc::clone(&kernel), 1001, 1001, ArckFsConfig::default());
        let rt = SimRuntime::new(17);
        let k = Arc::clone(&kernel);
        rt.spawn("story", move || {
            k.delegation().start();
            alice.mkdir("/shared", Mode(0o777)).unwrap();
            write_file(&*alice, "/shared/report.txt", &vec![0x51u8; 64 * 1024]).unwrap();
            alice.release_path("/shared").unwrap();
            read_file(&*mallory, "/shared/report.txt").unwrap();
            let fd = mallory.open("/shared/report.txt", OpenFlags::RDWR, Mode(0o666)).unwrap();
            mallory.pwrite(fd, 0, b"Q").unwrap();
            mallory.close(fd).unwrap();
            run_attack(&mallory, Attack::IndexCycle, "/shared", "report.txt").unwrap();
            mallory.release_path("/shared/report.txt").unwrap();
            mallory.release_path("/shared").unwrap();
            // Alice's next map re-verifies, detects the cycle, rolls the
            // file back, and quarantines mallory — the dump trigger.
            // (Auto-repair may re-admit her right away, so check the
            // entry counter, not the live quarantine set.)
            let _ = read_file(&*alice, "/shared/report.txt");
            assert!(
                k.resilience_stats().snapshot().quarantine_entries >= 1,
                "the attack must end in quarantine for this scenario to dump"
            );
            k.delegation().shutdown();
        });
        rt.run();
    }
    let text = std::fs::read_to_string(&path).expect("quarantine must auto-dump a timeline");
    let timeline = Parser::parse(&text).expect("timeline must be valid JSON");
    assert_eq!(timeline.get("trigger").unwrap().str(), "quarantine-entry");
    let spans = span_set(&timeline);
    // Delegated write pipeline plus the verifier walk that caught it.
    assert_span(&spans, "write", "syscall", "open");
    assert_span(&spans, "write", "syscall", "close");
    assert_span(&spans, "write", "ring-hop", "open");
    assert_span(&spans, "write", "worker-service", "close");
    assert_span(&spans, "write", "ring-hop", "close");
    assert_span(&spans, "verify", "verifier-walk", "open");
    assert_span(&spans, "verify", "verifier-walk", "close");
    assert_transfers_open_before_close(&timeline);

    // --- Scenario C: same seed, same timeline. -----------------------------
    // The determinism oracle: scenario A's healthy write, run twice from a
    // reset, must dump byte-identical timelines — op ids, generations,
    // virtual timestamps and stage histograms included.
    let healthy_run = || {
        trio_obs::reset();
        delegated_write(false);
        trio_obs::timeline_json("determinism")
    };
    let (first, second) = (healthy_run(), healthy_run());
    assert!(first.contains("\"stage\": \"worker-service\""), "the write must have been traced");
    if first != second {
        let differing = first.lines().zip(second.lines()).find(|(a, b)| a != b);
        panic!("two runs at seed 7 dumped different timelines; first differing line: {differing:?}");
    }

    std::env::remove_var("TRIO_OBS_TIMELINE");
}

/// `PathStatsSnapshot::to_json` round-trips through a real JSON parser
/// with the new percentile keys present and coherent.
#[test]
fn path_stats_json_round_trips_through_a_real_parser() {
    let s = PathStats::new();
    s.record_submission(3);
    s.record_ring_hop(0);
    for _ in 0..5 {
        s.record_ring_hop(512); // bucket 9 → geometric midpoint 724
    }
    s.record_ring_hop(100_000);
    s.record_delegated_bytes(1 << 20, true);
    let j = s.snapshot().to_json(&[("threads", "28".into())]);
    let v = Parser::parse(&j).expect("PathStatsSnapshot::to_json must be valid JSON");
    assert_eq!(v.get("threads").unwrap().num(), 28.0);
    assert_eq!(v.get("deleg_requests").unwrap().num(), 1.0);
    assert_eq!(v.get("ring_hop_zero").unwrap().num(), 1.0);
    assert_eq!(v.get("ring_hop_p50_ns").unwrap().num(), 724.0);
    assert_eq!(v.get("ring_hop_p99_ns").unwrap().num(), 92681.0);
    let hist = v.get("ring_hop_hist").unwrap().arr();
    assert_eq!(hist.len(), trio_nvm::HIST_BUCKETS);
    assert_eq!(hist[9].num(), 5.0);

    // Every key a snapshot emits is a key of the committed bench baseline
    // (and likewise one level down, for the per-site object): a counter
    // added without regenerating `BENCH_datapath.json` fails here.
    let committed = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_datapath.json");
    let committed = std::fs::read_to_string(committed).expect("committed BENCH_datapath.json");
    let committed = Parser::parse(&committed).expect("committed baseline must be valid JSON");
    let emitted = trio_nvm::PathStatsSnapshot::default().to_json(&[]);
    let emitted = Parser::parse(&emitted).expect("default snapshot must be valid JSON");
    assert!(emitted.keys().len() > 30);
    for key in emitted.keys() {
        let base = committed.get(key).unwrap_or_else(|| panic!("`{key}` not in the baseline"));
        for sub in emitted.get(key).unwrap().keys() {
            assert!(base.get(sub).is_some(), "`{key}.{sub}` not in the baseline");
        }
    }
}

/// The obs timeline emitter round-trips through the same parser even for
/// an empty recorder (edge case: empty `events` array).
#[test]
fn timeline_json_round_trips_through_a_real_parser() {
    let j = trio_obs::timeline_json("parser-check");
    let v = Parser::parse(&j).expect("timeline_json must be valid JSON");
    assert_eq!(v.get("trigger").unwrap().str(), "parser-check");
    assert!(v.get("events").unwrap().arr().len() <= trio_obs::RECORDER_SLOTS);
    assert!(v.get("stages").is_some());
}
