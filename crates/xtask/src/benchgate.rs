//! Bench-regression gate: compares the per-benchmark medians of a fresh
//! `BenchSuite` report against a committed baseline.
//!
//! A benchmark regresses when its current median exceeds the baseline
//! median by more than the percentage tolerance *and* by more than an
//! absolute noise floor (50 µs). The floor keeps the gate meaningful on
//! microsecond-scale entries, whose medians jitter far beyond any
//! percentage band on shared CI hardware, while still catching real
//! slowdowns in the heavier stages. A benchmark present in the baseline
//! but missing from the current report also fails the gate: silently
//! dropping a measurement is how regressions hide.
//!
//! On top of the CLI-wide default tolerance, [`RULES`] layers
//! per-pattern policy. Patterns are exact ids or `prefix/*` globs; later
//! matching rules override earlier ones field by field. Three kinds of
//! tightening exist:
//!
//! * a **pattern tolerance** replaces the default percentage band — the
//!   dense-grid Dial rewrite cut the detailed-routing medians ~5×, and a
//!   25% band around a 2 ms median would let most of that win erode
//!   unnoticed, so `detailed_routing/*` holds a 10% band;
//! * a **min-statistic comparison** (`compare_min`) applies the band to
//!   each report's fastest sample instead of its median. The routing
//!   stages are deterministic CPU-bound code, so their true cost is the
//!   fastest observed run; sustained host interference inflates medians
//!   ~25% on shared hardware while minima stay within a few percent, and
//!   a 10% band on medians would fail on load, not on regressions;
//! * an **absolute ceiling** fails the gate whenever the *current*
//!   median exceeds it, baseline notwithstanding — the ceilings sit near
//!   2× the post-rewrite medians, so even a sequence of sub-tolerance
//!   drifts (or a baseline regenerated after a slow patch) can never
//!   quietly give the speedup back.
//!
//! The reports are the JSON files written by `mebl-testkit`'s
//! `BenchSuite::finish_to`; the scan below reads only the `id`,
//! `median_ns` and `min_ns` fields so the gate stays zero-dependency.

use std::path::Path;

/// Absolute regression floor in nanoseconds; deltas below this are noise.
const NOISE_FLOOR_NS: u64 = 50_000;

/// Per-pattern gate policy. Fields left `None` defer to earlier matching
/// rules and ultimately to the CLI-wide defaults.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Exact benchmark id, or a `prefix/*` glob.
    pub pattern: &'static str,
    /// Replacement percentage tolerance for matching ids.
    pub tolerance_pct: Option<u64>,
    /// Compare each report's `min_ns` instead of its `median_ns`
    /// (noise-robust for deterministic CPU-bound benchmarks).
    pub compare_min: Option<bool>,
    /// Hard ceiling on the current median, independent of the baseline.
    pub ceiling_ns: Option<u64>,
}

/// The committed gate policy (rationale in the module docs).
pub const RULES: &[Rule] = &[
    Rule {
        pattern: "detailed_routing/*",
        tolerance_pct: Some(10),
        compare_min: Some(true),
        ceiling_ns: None,
    },
    Rule {
        pattern: "detailed_routing/w_stitch",
        tolerance_pct: None,
        compare_min: None,
        ceiling_ns: Some(4_000_000),
    },
    Rule {
        pattern: "detailed_routing/wo_stitch",
        tolerance_pct: None,
        compare_min: None,
        ceiling_ns: Some(2_800_000),
    },
    // Store numbers are filesystem-bound (fsync latency especially) and
    // vary wildly across CI disks; gate only against gross regressions.
    Rule {
        pattern: "store/*",
        tolerance_pct: Some(400),
        compare_min: Some(true),
        ceiling_ns: None,
    },
    // Delta-routing latencies are deterministic CPU-bound search, so
    // the min statistic is the honest one; the band is wide enough for
    // host variance but tight enough that losing the incremental win
    // (single-net delta creeping toward the scratch reference) fails.
    Rule {
        pattern: "delta/*",
        tolerance_pct: Some(60),
        compare_min: Some(true),
        ceiling_ns: None,
    },
    // Sharded-pipeline entries mix deterministic CPU-bound routing
    // (split/route/merge) with a loopback round-trip (coord_dispatch);
    // the min statistic is honest for both, and the bench itself
    // asserts the one-core overhead bars inline, so the gate only needs
    // to catch slower erosion.
    Rule {
        pattern: "shard/*",
        tolerance_pct: Some(60),
        compare_min: Some(true),
        ceiling_ns: None,
    },
    // A memory cache hit and a coordinator dispatch cost one loopback
    // round trip plus a lookup: the acceptors block in `accept` and
    // wake when a connection arrives, and a hit neither builds nor
    // parses its circuit. Both sit near 0.1 ms; the ceiling is the
    // 0.5 ms memory-hit target, so a sleep-poll acceptor (about 2 ms)
    // or per-hit circuit work fails whatever baseline is committed.
    Rule {
        pattern: "serve/cache_hit",
        tolerance_pct: None,
        compare_min: None,
        ceiling_ns: Some(500_000),
    },
    Rule {
        pattern: "shard/coord_dispatch",
        tolerance_pct: None,
        compare_min: None,
        ceiling_ns: Some(500_000),
    },
];

/// One benchmark's parsed measurements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Benchmark id (`group/name`).
    pub id: String,
    /// Median sample in nanoseconds.
    pub median_ns: u64,
    /// Fastest sample in nanoseconds.
    pub min_ns: u64,
}

/// Whether `pattern` (exact id or `prefix/*`) covers `id`.
fn pattern_matches(pattern: &str, id: &str) -> bool {
    match pattern.strip_suffix('*') {
        Some(prefix) => id.starts_with(prefix),
        None => id == pattern,
    }
}

/// The effective `(tolerance, compare_min, ceiling)` for `id`: defaults
/// overridden field by field by each matching rule, in order.
fn policy_for(id: &str, default_tolerance: u64, rules: &[Rule]) -> (u64, bool, Option<u64>) {
    let mut tolerance = default_tolerance;
    let mut use_min = false;
    let mut ceiling = None;
    for rule in rules {
        if pattern_matches(rule.pattern, id) {
            if let Some(t) = rule.tolerance_pct {
                tolerance = t;
            }
            if let Some(m) = rule.compare_min {
                use_min = m;
            }
            if let Some(c) = rule.ceiling_ns {
                ceiling = Some(c);
            }
        }
    }
    (tolerance, use_min, ceiling)
}

/// Extracts the first `"key": <digits>` value in `text`, if any.
fn field_u64(text: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\": ");
    let pos = text.find(&needle)?;
    let digits: String = text[pos + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Extracts the benchmark entries from a `BenchSuite` JSON report.
/// Reports written before `min_ns` existed fall back to the median.
pub fn parse_medians(text: &str) -> Vec<Entry> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(pos) = rest.find("\"id\": \"") {
        rest = &rest[pos + 7..];
        let Some(end) = rest.find('"') else { break };
        let id = rest[..end].to_string();
        // Field lookups stay within this record: they search forward
        // from the id, and every record leads with its id.
        let record = match rest.find("\"id\": \"") {
            Some(next) => &rest[..next],
            None => rest,
        };
        if let Some(median) = field_u64(record, "median_ns") {
            let min = field_u64(record, "min_ns").unwrap_or(median);
            out.push(Entry {
                id,
                median_ns: median,
                min_ns: min,
            });
        }
    }
    out
}

/// Compares two parsed reports under the default tolerance and the
/// per-pattern `rules`; returns one message per gate failure.
pub fn compare(
    baseline: &[Entry],
    current: &[Entry],
    default_tolerance: u64,
    rules: &[Rule],
) -> Vec<String> {
    let mut failures = Vec::new();
    for base in baseline {
        let Some(now) = current.iter().find(|c| c.id == base.id) else {
            failures.push(format!(
                "{}: present in baseline but missing from current report",
                base.id
            ));
            continue;
        };
        let (tolerance_pct, use_min, _) = policy_for(&base.id, default_tolerance, rules);
        let (stat, b, n) = if use_min {
            ("min", base.min_ns, now.min_ns)
        } else {
            ("median", base.median_ns, now.median_ns)
        };
        let allowed = b.saturating_mul(100 + tolerance_pct) / 100;
        if n > allowed && n.saturating_sub(b) > NOISE_FLOOR_NS {
            failures.push(format!(
                "{}: {stat} {n} ns exceeds baseline {b} ns by more than {tolerance_pct}%",
                base.id
            ));
        }
    }
    // Ceilings bind on the current report alone, so they hold even for
    // benchmarks the baseline has never seen.
    for now in current {
        let (_, _, ceiling) = policy_for(&now.id, default_tolerance, rules);
        if let Some(ceiling) = ceiling {
            if now.median_ns > ceiling {
                failures.push(format!(
                    "{}: median {} ns exceeds the absolute ceiling of {ceiling} ns",
                    now.id, now.median_ns
                ));
            }
        }
    }
    failures
}

/// Runs the gate over two report files with the committed [`RULES`].
/// `Ok(failures)` lists regressions (empty = gate passed); `Err` means a
/// report could not be read/parsed.
pub fn run(baseline: &Path, current: &Path, tolerance_pct: u64) -> Result<Vec<String>, String> {
    let read = |path: &Path| -> Result<Vec<Entry>, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let parsed = parse_medians(&text);
        if parsed.is_empty() {
            return Err(format!("{}: no benchmark entries found", path.display()));
        }
        Ok(parsed)
    };
    Ok(compare(&read(baseline)?, &read(current)?, tolerance_pct, RULES))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: &str, median: u64, min: u64) -> Entry {
        Entry {
            id: id.to_string(),
            median_ns: median,
            min_ns: min,
        }
    }

    const REPORT: &str = r#"{
  "suite": "stages",
  "benchmarks": [
    {"id": "a/fast", "median_ns": 30000, "mean_ns": 1, "min_ns": 28000, "samples": 10},
    {"id": "b/slow", "median_ns": 5000000, "mean_ns": 1, "min_ns": 4800000, "samples": 10}
  ]
}"#;

    #[test]
    fn parses_ids_medians_and_minima() {
        let parsed = parse_medians(REPORT);
        assert_eq!(
            parsed,
            vec![entry("a/fast", 30_000, 28_000), entry("b/slow", 5_000_000, 4_800_000)]
        );
    }

    #[test]
    fn missing_min_falls_back_to_median() {
        let parsed = parse_medians(r#"{"id": "a", "median_ns": 42, "samples": 1}"#);
        assert_eq!(parsed, vec![entry("a", 42, 42)]);
    }

    #[test]
    fn within_tolerance_passes() {
        let base = parse_medians(REPORT);
        let current = vec![entry("a/fast", 36_000, 30_000), entry("b/slow", 6_000_000, 5_500_000)];
        assert!(compare(&base, &current, 25, &[]).is_empty());
    }

    #[test]
    fn large_regression_fails() {
        let base = parse_medians(REPORT);
        let current = vec![entry("a/fast", 30_000, 28_000), entry("b/slow", 7_000_000, 6_900_000)];
        let failures = compare(&base, &current, 25, &[]);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].starts_with("b/slow:"));
    }

    #[test]
    fn microbench_jitter_below_noise_floor_passes() {
        // 30 µs -> 70 µs is far over 25% but under the 50 µs floor.
        let base = vec![entry("a/fast", 30_000, 28_000)];
        let current = vec![entry("a/fast", 70_000, 65_000)];
        assert!(compare(&base, &current, 25, &[]).is_empty());
    }

    #[test]
    fn missing_benchmark_fails() {
        let base = parse_medians(REPORT);
        let failures = compare(&base, &[entry("a/fast", 30_000, 28_000)], 25, &[]);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("missing"));
    }

    #[test]
    fn pattern_rule_tightens_tolerance() {
        // +15% on a 2 ms minimum: inside the default 25%, outside the
        // detailed_routing/* 10% band.
        let base = vec![entry("detailed_routing/w_stitch", 2_000_000, 2_000_000)];
        let current = vec![entry("detailed_routing/w_stitch", 2_300_000, 2_300_000)];
        assert!(compare(&base, &current, 25, &[]).is_empty());
        let failures = compare(&base, &current, 25, RULES);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("10%"), "{failures:?}");
    }

    #[test]
    fn loaded_medians_with_stable_minima_pass() {
        // Sustained host load inflates the median 25% while the fastest
        // sample moves 3%: the min-statistic rule shrugs it off where a
        // median band would fail.
        let base = vec![entry("detailed_routing/w_stitch", 2_000_000, 1_900_000)];
        let current = vec![entry("detailed_routing/w_stitch", 2_500_000, 1_960_000)];
        assert!(compare(&base, &current, 25, RULES).is_empty());
    }

    #[test]
    fn regressed_minima_fail() {
        let base = vec![entry("detailed_routing/w_stitch", 2_000_000, 1_900_000)];
        let current = vec![entry("detailed_routing/w_stitch", 2_500_000, 2_300_000)];
        let failures = compare(&base, &current, 25, RULES);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("min"), "{failures:?}");
    }

    #[test]
    fn ceiling_binds_regardless_of_baseline() {
        // A regenerated (slow) baseline would make a 5 ms median pass
        // every percentage check; the absolute ceiling still fails it.
        let base = vec![entry("detailed_routing/w_stitch", 5_000_000, 5_000_000)];
        let current = vec![entry("detailed_routing/w_stitch", 5_000_000, 5_000_000)];
        let failures = compare(&base, &current, 25, RULES);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("ceiling"), "{failures:?}");
        // And it binds even when the id is absent from the baseline.
        let failures = compare(&[], &current, 25, RULES);
        assert_eq!(failures.len(), 1);
    }

    #[test]
    fn wire_speed_ceilings_fail_a_sleep_poll_acceptor() {
        // The 2.1 ms medians of a 2 ms sleep-poll acceptor pass every
        // band against an equally slow baseline; the ceilings do not.
        for id in ["serve/cache_hit", "shard/coord_dispatch"] {
            let slow = vec![entry(id, 2_120_000, 980_000)];
            let failures = compare(&slow, &slow, 150, RULES);
            assert_eq!(failures.len(), 1, "{id}: {failures:?}");
            assert!(failures[0].contains("ceiling"), "{failures:?}");
            let fast = vec![entry(id, 110_000, 90_000)];
            assert!(compare(&fast, &fast, 150, RULES).is_empty(), "{id}");
        }
    }

    #[test]
    fn ceiling_passes_below_the_bound() {
        let base = vec![entry("detailed_routing/wo_stitch", 1_400_000, 1_350_000)];
        let current = vec![entry("detailed_routing/wo_stitch", 1_500_000, 1_400_000)];
        assert!(compare(&base, &current, 25, RULES).is_empty());
    }

    #[test]
    fn later_rules_override_earlier_fields() {
        let rules = [
            Rule {
                pattern: "x/*",
                tolerance_pct: Some(10),
                compare_min: Some(true),
                ceiling_ns: Some(100),
            },
            Rule {
                pattern: "x/y",
                tolerance_pct: Some(50),
                compare_min: None,
                ceiling_ns: None,
            },
        ];
        // Tolerance overridden to 50%; min statistic and ceiling
        // inherited from x/*.
        assert_eq!(policy_for("x/y", 25, &rules), (50, true, Some(100)));
        assert_eq!(policy_for("x/z", 25, &rules), (10, true, Some(100)));
        assert_eq!(policy_for("other", 25, &rules), (25, false, None));
    }
}
