//! The metrics kit: how a metric is declared, windowed and serialised.
//!
//! Every stats plane in the workspace (`trio_nvm::PathStats`, the kernel's
//! `ResilienceStats` and `MediaStats`, the `trio-obs` stage histograms)
//! and every report emitter is built from the three pieces here, so a new
//! counter is one line in a [`counters!`] declaration:
//!
//! * [`counters!`] — from one declaration per member it generates the
//!   relaxed-atomic live struct, the plain snapshot struct with the same
//!   field names, `snapshot()`, saturating `delta()` and a
//!   `(name, value)` visitor.
//! * [`bucket_index`], [`bucket_midpoint_ns`], [`quantile_ns`] — the one
//!   log-2 latency histogram: bucket `i` covers `[2^i, 2^(i+1))` ns, the
//!   last bucket is open-ended, and a quantile reads out at the bucket's
//!   geometric midpoint.
//! * [`JsonObject`] — the one JSON writer (the workspace is
//!   dependency-free, so no serde).
//!
//! The kit lives in `trio-sim` because that is the only crate below both
//! `trio-nvm` and the optional `trio-obs`. Recording is a relaxed
//! `fetch_add` on a field the owning module can see; nothing here charges
//! virtual time.

use std::fmt::{Display, Write};

/// What one member of a counter set holds: a scalar or a fixed array.
#[derive(Clone, Copy, Debug)]
pub enum Value<'a> {
    Scalar(u64),
    Array(&'a [u64]),
}

/// Declares a set of relaxed `AtomicU64` counters and its plain-value
/// snapshot from one line per member:
///
/// ```
/// trio_sim::counters! {
///     /// Live counters.
///     pub struct Live => pub struct Snap {
///         /// Requests seen.
///         requests,
///         /// Latency histogram.
///         hist: [4],
///     }
/// }
/// let live = Live::new();
/// live.requests.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
/// assert_eq!(live.snapshot().requests, 1);
/// ```
///
/// The live struct's fields are private to the declaring module (which
/// writes its own `record_*` methods over them); the snapshot's are
/// `pub`. Doc comments are kept on both.
#[macro_export]
macro_rules! counters {
    (
        $(#[$live_meta:meta])*
        $live_vis:vis struct $Live:ident => $snap_vis:vis struct $Snap:ident {
            $( $(#[$member_meta:meta])* $member:ident $(: [$len:expr])? ),* $(,)?
        }
    ) => {
        $(#[$live_meta])*
        $live_vis struct $Live {
            $( $(#[$member_meta])* $member: $crate::counters!(@atomic $($len)?), )*
        }

        impl $Live {
            /// Fresh zeroed counters.
            $live_vis const fn new() -> Self {
                Self { $( $member: $crate::counters!(@zero $($len)?), )* }
            }

            /// Coherent-enough copy of every counter (relaxed loads; exact
            /// once the workload has quiesced).
            $live_vis fn snapshot(&self) -> $Snap {
                $Snap { $( $member: $crate::counters!(@load self.$member $(, $len)?), )* }
            }
        }

        impl Default for $Live {
            fn default() -> Self {
                Self::new()
            }
        }

        #[doc = concat!("Plain-value snapshot of [`", stringify!($Live), "`].")]
        #[derive(Clone, Debug, PartialEq, Eq)]
        $snap_vis struct $Snap {
            $( $(#[$member_meta])* pub $member: $crate::counters!(@plain $($len)?), )*
        }

        impl Default for $Snap {
            fn default() -> Self {
                Self { $( $member: $crate::counters!(@plain_zero $($len)?), )* }
            }
        }

        impl $Snap {
            /// Counters accumulated since `earlier` (member-wise saturating
            /// subtraction). The race-free way to carve a measured window
            /// out of shared live counters: snapshot before, snapshot
            /// after, delta — no quiescence and no reset needed.
            pub fn delta(&self, earlier: &Self) -> Self {
                Self {
                    $( $member: $crate::counters!(
                        @sub self.$member, earlier.$member $(, $len)?
                    ), )*
                }
            }

            /// Calls `f(name, value)` for every member, in declaration order.
            pub fn visit(&self, mut f: impl FnMut(&'static str, $crate::metrics::Value<'_>)) {
                $( f(stringify!($member), $crate::counters!(@value self.$member $(, $len)?)); )*
            }
        }
    };

    (@atomic) => { ::std::sync::atomic::AtomicU64 };
    (@atomic $len:expr) => { [::std::sync::atomic::AtomicU64; $len] };
    (@zero) => { ::std::sync::atomic::AtomicU64::new(0) };
    (@zero $len:expr) => { [const { ::std::sync::atomic::AtomicU64::new(0) }; $len] };
    (@plain) => { u64 };
    (@plain $len:expr) => { [u64; $len] };
    (@plain_zero) => { 0 };
    (@plain_zero $len:expr) => { [0; $len] };
    (@load $cell:expr) => { $cell.load(::std::sync::atomic::Ordering::Relaxed) };
    (@load $cell:expr, $len:expr) => {
        ::std::array::from_fn(|i| $cell[i].load(::std::sync::atomic::Ordering::Relaxed))
    };
    (@sub $now:expr, $earlier:expr) => { $now.saturating_sub($earlier) };
    (@sub $now:expr, $earlier:expr, $len:expr) => {
        ::std::array::from_fn(|i| $now[i].saturating_sub($earlier[i]))
    };
    (@value $v:expr) => { $crate::metrics::Value::Scalar($v) };
    (@value $v:expr, $len:expr) => { $crate::metrics::Value::Array(&$v) };
}
pub use crate::counters;

// ---------------------------------------------------------------------------
// Log-2 latency histogram
// ---------------------------------------------------------------------------

/// The bucket of `ns` in a `buckets`-bucket log-2 histogram: bucket `i`
/// covers `[2^i, 2^(i+1))` ns and the last bucket is open-ended. 0 ns
/// lands in bucket 0 with the 1 ns samples; a histogram that must tell
/// the two apart keeps a zero counter beside the buckets and tests for 0
/// before calling this.
#[inline]
pub fn bucket_index(ns: u64, buckets: usize) -> usize {
    (63 - ns.max(1).leading_zeros() as usize).min(buckets - 1)
}

/// Geometric midpoint of log bucket `i`: `2^i·√2`, the unbiased point
/// estimate for a log-uniform sample (the lower bound `2^i` understates
/// skewed tails by up to 2×). Bucket 0 holds only the value 1.
pub fn bucket_midpoint_ns(i: usize) -> u64 {
    if i == 0 {
        1
    } else {
        ((1u64 << i) as f64 * std::f64::consts::SQRT_2) as u64
    }
}

/// Latency at the `num/den` quantile of a log-2 histogram, in ns: the
/// midpoint of the bucket holding the sample of rank `⌈total·num/den⌉`.
/// `zero` samples of exactly 0 ns rank below bucket 0 (pass 0 for a
/// histogram without a zero counter). Returns 0 for an empty histogram.
pub fn quantile_ns(zero: u64, buckets: &[u64], num: u64, den: u64) -> u64 {
    let total = zero + buckets.iter().sum::<u64>();
    let mut seen = zero;
    if total == 0 || seen * den >= num * total {
        return 0;
    }
    for (i, &n) in buckets.iter().enumerate() {
        seen += n;
        if seen * den >= num * total {
            return bucket_midpoint_ns(i);
        }
    }
    bucket_midpoint_ns(buckets.len() - 1)
}

// ---------------------------------------------------------------------------
// JSON writer
// ---------------------------------------------------------------------------

fn push_quoted(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `s` as a JSON string literal (quoted, `"` `\` and control characters
/// escaped).
pub fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_quoted(&mut out, s);
    out
}

/// Writes one JSON object. The document's own members go one per line;
/// nested objects and scalar arrays stay on their member's line, and an
/// array of objects ([`JsonObject::objects`]) puts one element per line so
/// two dumps diff line by line. Keys keep insertion order.
pub struct JsonObject {
    out: String,
    /// Nested in the document (members share a line) rather than the
    /// document itself (one member per line).
    inline: bool,
    members: usize,
}

impl Default for JsonObject {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonObject {
    /// An empty top-level object.
    pub fn new() -> Self {
        JsonObject { out: String::from("{"), inline: false, members: 0 }
    }

    fn key(&mut self, key: &str) {
        if self.members > 0 {
            self.out.push(',');
        }
        if !self.inline {
            self.out.push_str("\n  ");
        } else if self.members > 0 {
            self.out.push(' ');
        }
        self.members += 1;
        push_quoted(&mut self.out, key);
        self.out.push_str(": ");
    }

    /// `"key": value`, with `value` written by its `Display`: numbers,
    /// pre-formatted floats, `null`, or JSON text rendered elsewhere.
    /// Strings go through [`quoted`] first.
    pub fn field(&mut self, key: &str, value: impl Display) -> &mut Self {
        self.key(key);
        let _ = write!(self.out, "{value}");
        self
    }

    /// `"key": [a, b, …]` on one line (items by `Display`, as in
    /// [`JsonObject::field`]).
    pub fn array<T: Display>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
    ) -> &mut Self {
        self.key(key);
        self.out.push('[');
        for (i, item) in items.into_iter().enumerate() {
            let _ = write!(self.out, "{}{item}", if i > 0 { ", " } else { "" });
        }
        self.out.push(']');
        self
    }

    /// One counter-set member: a number or an array of numbers.
    pub fn value(&mut self, key: &str, value: Value<'_>) -> &mut Self {
        match value {
            Value::Scalar(v) => self.field(key, v),
            Value::Array(a) => self.array(key, a),
        }
    }

    fn nested(&mut self, fill: impl FnOnce(&mut JsonObject)) {
        let mut o = JsonObject { out: std::mem::take(&mut self.out), inline: true, members: 0 };
        o.out.push('{');
        fill(&mut o);
        self.out = o.finish();
    }

    /// `"key": {…}`, filled by `fill`.
    pub fn object(&mut self, key: &str, fill: impl FnOnce(&mut JsonObject)) -> &mut Self {
        self.key(key);
        self.nested(fill);
        self
    }

    /// `"key": [{…}, {…}, …]`, one object per item, one item per line.
    pub fn objects<T>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
        mut fill: impl FnMut(&mut JsonObject, T),
    ) -> &mut Self {
        self.key(key);
        self.out.push('[');
        let mut any = false;
        for item in items {
            self.out.push_str(if any { ",\n    " } else { "\n    " });
            any = true;
            self.nested(|o| fill(o, item));
        }
        self.out.push_str(if any { "\n  ]" } else { "]" });
        self
    }

    /// The finished text (no trailing newline).
    pub fn finish(mut self) -> String {
        if !self.inline && self.members > 0 {
            self.out.push('\n');
        }
        self.out.push('}');
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering::Relaxed;

    counters! {
        /// A two-member toy set: one scalar, one array.
        struct Toy => struct ToySnap {
            /// Things counted.
            hits,
            /// Things counted per lane.
            lanes: [3],
        }
    }

    #[test]
    fn toy_set_snapshots_deltas_visits_and_serialises() {
        let toy = Toy::new();
        toy.hits.fetch_add(5, Relaxed);
        toy.lanes[2].fetch_add(7, Relaxed);
        let base = toy.snapshot();
        assert_eq!(base, ToySnap { hits: 5, lanes: [0, 0, 7] });
        assert_eq!(base.delta(&base), ToySnap::default());

        toy.hits.fetch_add(1, Relaxed);
        toy.lanes[0].fetch_add(2, Relaxed);
        let win = toy.snapshot().delta(&base);
        assert_eq!(win, ToySnap { hits: 1, lanes: [2, 0, 0] });
        // Saturating: a later base never underflows.
        assert_eq!(base.delta(&toy.snapshot()), ToySnap::default());

        let mut seen = Vec::new();
        win.visit(|name, v| seen.push(format!("{name}: {v:?}")));
        assert_eq!(seen, ["hits: Scalar(1)", "lanes: Array([2, 0, 0])"]);

        let mut w = JsonObject::new();
        win.visit(|name, v| {
            w.value(name, v);
        });
        assert_eq!(w.finish(), "{\n  \"hits\": 1,\n  \"lanes\": [2, 0, 0]\n}");
    }

    #[test]
    fn buckets_split_by_power_of_two() {
        for n in [24, 32] {
            assert_eq!(bucket_index(0, n), 0);
            assert_eq!(bucket_index(1, n), 0);
            assert_eq!(bucket_index(2, n), 1);
            assert_eq!(bucket_index(1023, n), 9);
            assert_eq!(bucket_index(1024, n), 10);
            assert_eq!(bucket_index(u64::MAX, n), n - 1); // clamped to the open-ended bucket
        }
        assert_eq!(bucket_midpoint_ns(0), 1);
        assert_eq!(bucket_midpoint_ns(9), 724); // 512·√2
        assert_eq!(bucket_midpoint_ns(16), 92_681); // 65536·√2
    }

    #[test]
    fn quantiles_pin_against_hand_computed_histograms() {
        for n in [24, 32] {
            let hist = |samples: &[(usize, u64)]| {
                let mut h = vec![0u64; n];
                for &(bucket, count) in samples {
                    h[bucket] = count;
                }
                h
            };
            // 2 zero-ns samples, 3 in bucket 9, 1 in bucket 16. Ranked
            // [0, 0, b9, b9, b9, b16]: rank ⌈6/2⌉ = 3 is bucket 9, rank
            // ⌈6·0.99⌉ = 6 is bucket 16.
            let h = hist(&[(9, 3), (16, 1)]);
            assert_eq!(quantile_ns(2, &h, 1, 2), 724);
            assert_eq!(quantile_ns(2, &h, 99, 100), 92_681);

            // 99 samples in bucket 9, 1 in bucket 16: p99 stays in bucket
            // 9, p99.9 reaches the tail.
            let h = hist(&[(9, 99), (16, 1)]);
            assert_eq!(quantile_ns(0, &h, 1, 2), 724);
            assert_eq!(quantile_ns(0, &h, 99, 100), 724);
            assert_eq!(quantile_ns(0, &h, 999, 1000), 92_681);

            // Zero-dominated: the median is the explicit 0 mass, not
            // bucket 0's midpoint.
            let h = hist(&[(6, 1)]);
            assert_eq!(quantile_ns(10, &h, 1, 2), 0);
            assert_eq!(quantile_ns(10, &h, 99, 100), 90); // 64·√2

            // Everything in the open-ended last bucket.
            let h = hist(&[(n - 1, 4)]);
            assert_eq!(quantile_ns(0, &h, 1, 2), bucket_midpoint_ns(n - 1));

            // Empty reports 0, not bucket 0's midpoint.
            assert_eq!(quantile_ns(0, &hist(&[]), 1, 2), 0);
            assert_eq!(quantile_ns(0, &hist(&[]), 99, 100), 0);
        }
    }

    #[test]
    fn json_nests_escapes_and_breaks_lines_for_object_arrays() {
        let mut w = JsonObject::new();
        w.field("n", 3).field("rate", format_args!("{:.2}", 0.5)).field("none", "null");
        w.field("s", quoted("a \"b\" \\ c\n"));
        w.array("empty", [0u64; 0]);
        w.object("sites", |o| {
            o.field("map", 2).field("free", 0);
        });
        w.objects("events", [1u64, 2], |o, i| {
            o.field("gen", i).field("kind", quoted("read"));
        });
        w.objects("nothing", [0u64; 0], |_, _| {});
        assert_eq!(
            w.finish(),
            "{\n  \"n\": 3,\n  \"rate\": 0.50,\n  \"none\": null,\n  \
             \"s\": \"a \\\"b\\\" \\\\ c\\n\",\n  \"empty\": [],\n  \
             \"sites\": {\"map\": 2, \"free\": 0},\n  \"events\": [\n    \
             {\"gen\": 1, \"kind\": \"read\"},\n    {\"gen\": 2, \"kind\": \"read\"}\n  ],\n  \
             \"nothing\": []\n}"
        );
        assert_eq!(JsonObject::new().finish(), "{}");
    }
}
