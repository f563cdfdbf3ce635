//! The scenario-matrix DSL: a small TOML-subset format describing cross
//! products of simulation knobs, expanded deterministically into flat
//! `(Workload, RunConfig)` job lists.
//!
//! ```toml
//! name = "smoke"
//! scope = "smoke"            # smoke | default | full (workload scale)
//!
//! [matrix]
//! workloads = ["MM", "GUPS", "MM+GUPS"]   # '+' composes multi-app mixes
//! managers = ["gpu-mmu", "mosaic"]        # see mosaic_gpusim::manager_tokens
//! l1_tlb = ["128/16"]                     # base/large entries per SM
//! l2_tlb = ["512/256"]                    # shared, base/large entries
//! fragmentation = ["none", "0.6:0.85"]    # none | index:occupancy
//! oversubscription = ["none", 2.0]        # none | factor >= 1.0
//! paging = ["on-demand"]                  # on-demand | preloaded
//! seeds = [42]
//! ```
//!
//! Every axis is one row of `AXES`, and the rows are the whole
//! description:
//!
//! - Table order is nesting order: the first axis is the outermost loop,
//!   so a given file always yields the same job list in the same order —
//!   the property resumable campaigns rely on.
//! - Only `workloads` is required, and `managers` defaults to `mosaic`.
//!   Any other absent axis keeps the base `RunConfig`'s value.
//! - A label names the workload and the manager, then every other value
//!   that changes the config it is applied to, in table order.
//! - Two kinds of combination cannot run, and are skipped
//!   deterministically and reported, never silently dropped:
//!   oversubscription with preloaded paging (preloading assumes
//!   everything fits), and fragmentation under a manager that is not
//!   Mosaic (only Mosaic pre-fragments memory, so the run would
//!   duplicate the pristine one under a label that claims otherwise).
//! - A value an axis repeats is rejected on its line. Two values repeat
//!   when applying them gives the same label text (`0.5:0.9` and
//!   `0.50:0.90`), since their points would be the same run twice.
//! - A new axis is one row: its key, its absent value and one function
//!   that parses a value, applies it and returns its label text.

use mosaic_gpusim::{manager_tokens, DemandPagingMode, ManagerKind, RunConfig};
use mosaic_workloads::{AppProfile, ScaleConfig, Workload};
use std::fmt;

/// Workload scale tier of a campaign; the experiment crate's `Scope`
/// scales through it, so campaign cache entries are shared with the
/// figure drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignScope {
    /// Reduced scale for CI and quick runs.
    Smoke,
    /// The default (paper) scale.
    Default,
    /// Alias of `Default` — campaign files list workloads explicitly, so
    /// the full/default distinction of the figure drivers collapses.
    Full,
}

impl CampaignScope {
    /// The workload scale this tier runs at; the one smoke-scale table,
    /// which `mosaic_experiments::Scope::scale` reads too.
    pub fn scale(self) -> ScaleConfig {
        match self {
            CampaignScope::Smoke => {
                ScaleConfig { ws_divisor: 16, mem_ops_per_warp: 120, warps_per_sm: 6, phases: 1 }
            }
            _ => ScaleConfig::default(),
        }
    }
}

/// A parse or validation error, carrying the 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number (0 for file-level errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "campaign spec: {}", self.message)
        } else {
            write!(f, "campaign spec line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError { line, message: message.into() })
}

/// A parsed, validated campaign specification.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Campaign name (used in reports and status files).
    pub name: String,
    /// Workload scale tier.
    pub scope: CampaignScope,
    /// Each `AXES` row's values, in table order; empty for an absent
    /// axis that keeps the base config.
    axes: Vec<Vec<Value>>,
}

/// One expanded campaign point.
#[derive(Debug, Clone)]
pub struct Point {
    /// Human-facing label: workload and manager, then each other axis
    /// value that changes the config.
    pub label: String,
    /// The workload to run.
    pub workload: Workload,
    /// The full run configuration.
    pub cfg: RunConfig,
}

/// A combination the expansion rejected, with the reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedPoint {
    /// Label the point would have had.
    pub label: String,
    /// Why it cannot run.
    pub reason: String,
}

/// A fully-expanded campaign: the deterministic job list plus the
/// combinations that were skipped as semantically invalid.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Campaign name from the spec.
    pub name: String,
    /// Scale tier from the spec.
    pub scope: CampaignScope,
    /// Runnable points, in deterministic expansion order.
    pub points: Vec<Point>,
    /// Skipped combinations, in the order they were encountered.
    pub skipped: Vec<SkippedPoint>,
}

/// One scalar value of the TOML subset. A number keeps its source text,
/// so an integer axis can parse it without a trip through `f64`.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    Num(f64, String),
}

impl Value {
    fn describe(&self) -> String {
        match self {
            Value::Str(s) => format!("{s:?}"),
            Value::Num(_, text) => text.clone(),
        }
    }

    fn str(&self, axis: &str) -> Result<&str, String> {
        match self {
            Value::Str(s) => Ok(s),
            Value::Num(..) => {
                Err(format!("{axis} must be a quoted string, got {}", self.describe()))
            }
        }
    }
}

/// Strips a trailing `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_scalar(s: &str, line: usize) -> Result<Value, ParseError> {
    let s = s.trim();
    if let Some(rest) = s.strip_prefix('"') {
        let Some(inner) = rest.strip_suffix('"') else {
            return err(line, format!("unterminated string {s}"));
        };
        if inner.contains('"') {
            return err(line, format!("embedded quote in {s}"));
        }
        return Ok(Value::Str(inner.to_string()));
    }
    match s.parse::<f64>() {
        Ok(n) if n.is_finite() => Ok(Value::Num(n, s.to_string())),
        _ => err(line, format!("expected a quoted string or a number, got {s}")),
    }
}

/// Parses `value` as either a single scalar or a single-line
/// `[a, b, ...]` array; a scalar denotes a one-element axis.
fn parse_values(s: &str, line: usize) -> Result<Vec<Value>, ParseError> {
    let s = s.trim();
    let Some(rest) = s.strip_prefix('[') else {
        return Ok(vec![parse_scalar(s, line)?]);
    };
    let Some(inner) = rest.strip_suffix(']') else {
        return err(line, "arrays must open and close on one line");
    };
    let inner = inner.trim();
    if inner.is_empty() {
        return err(line, "empty axis (an axis needs at least one value)");
    }
    inner.split(',').map(|part| parse_scalar(part, line)).collect()
}

/// The point an axis value is applied to.
struct Draft {
    workload: Option<Workload>,
    cfg: RunConfig,
}

/// What an axis the file leaves out expands to.
#[derive(PartialEq)]
enum Absent {
    /// Nothing: the file must name the axis.
    Required,
    /// This one value.
    Use(&'static str),
    /// The base config's value. Only these axes hide a value that leaves
    /// the config as it was; the others have no base value to hide, so
    /// their label text always shows.
    Keep,
}

/// One matrix axis: everything the DSL knows about it.
struct Axis {
    /// The key under `[matrix]`.
    key: &'static str,
    absent: Absent,
    /// Parses one value, applies it to the point and returns its label
    /// text, or says why the value is invalid.
    apply: fn(&Value, &mut Draft) -> Result<String, String>,
}

/// Every matrix axis, in expansion order (the first is the outermost
/// loop).
const AXES: &[Axis] = &[
    Axis { key: "workloads", absent: Absent::Required, apply: apply_workload },
    Axis { key: "managers", absent: Absent::Use("mosaic"), apply: apply_manager },
    Axis { key: "l1_tlb", absent: Absent::Keep, apply: apply_l1_tlb },
    Axis { key: "l2_tlb", absent: Absent::Keep, apply: apply_l2_tlb },
    Axis { key: "fragmentation", absent: Absent::Keep, apply: apply_fragmentation },
    Axis { key: "oversubscription", absent: Absent::Keep, apply: apply_oversubscription },
    Axis { key: "paging", absent: Absent::Keep, apply: apply_paging },
    Axis { key: "seeds", absent: Absent::Keep, apply: apply_seed },
];

fn apply_workload(v: &Value, d: &mut Draft) -> Result<String, String> {
    let s = v.str("workloads")?;
    if s.is_empty() {
        return Err("empty workload spec".to_string());
    }
    let names: Vec<&str> = s.split('+').map(str::trim).collect();
    if let Some(app) = names.iter().find(|app| AppProfile::by_name(app).is_none()) {
        return Err(format!("unknown application {app:?} in workload {s:?}"));
    }
    d.workload = Some(Workload::from_names(&names));
    Ok(s.to_string())
}

fn apply_manager(v: &Value, d: &mut Draft) -> Result<String, String> {
    let s = v.str("managers")?;
    let Some((kind, ideal_tlb)) = ManagerKind::from_token(s) else {
        let tokens = manager_tokens().map(|(t, ..)| t);
        return Err(format!("unknown manager {s:?} (expected one of {tokens:?})"));
    };
    (d.cfg.manager, d.cfg.system.ideal_tlb) = (kind, ideal_tlb);
    Ok(s.to_string())
}

fn apply_l1_tlb(v: &Value, d: &mut Draft) -> Result<String, String> {
    let (base, large) = tlb(v, "l1_tlb")?;
    (d.cfg.system.l1_tlb.base_entries, d.cfg.system.l1_tlb.large_entries) = (base, large);
    Ok(format!("l1={base}/{large}"))
}

fn apply_l2_tlb(v: &Value, d: &mut Draft) -> Result<String, String> {
    let (base, large) = tlb(v, "l2_tlb")?;
    (d.cfg.system.l2_tlb.base_entries, d.cfg.system.l2_tlb.large_entries) = (base, large);
    Ok(format!("l2={base}/{large}"))
}

fn apply_fragmentation(v: &Value, d: &mut Draft) -> Result<String, String> {
    let s = v.str("fragmentation")?;
    let unit = |x: f64| (0.0..=1.0).contains(&x);
    d.cfg.fragmentation = match pair(s, ':') {
        _ if s == "none" => None,
        Some((i, o)) if unit(i) && unit(o) => Some((i, o)),
        _ => {
            let expected = "\"none\" or \"index:occupancy\" with both in [0, 1]";
            return Err(format!("fragmentation must be {expected}, got {s:?}"));
        }
    };
    Ok(match d.cfg.fragmentation {
        Some((i, o)) => format!("frag={i}:{o}"),
        None => format!("frag={s}"),
    })
}

fn apply_oversubscription(v: &Value, d: &mut Draft) -> Result<String, String> {
    d.cfg.oversubscription = match v {
        Value::Str(s) if s == "none" => None,
        Value::Num(f, _) if *f >= 1.0 => Some(*f),
        _ => {
            let got = v.describe();
            return Err(format!("oversubscription must be \"none\" or a factor >= 1.0, got {got}"));
        }
    };
    Ok(match d.cfg.oversubscription {
        Some(f) => format!("over={f}x"),
        None => "over=none".to_string(),
    })
}

fn apply_paging(v: &Value, d: &mut Draft) -> Result<String, String> {
    let s = v.str("paging")?;
    d.cfg.paging = match s {
        "on-demand" => DemandPagingMode::OnDemand,
        "preloaded" => DemandPagingMode::PreloadedFree,
        _ => return Err(format!("paging must be \"on-demand\" or \"preloaded\", got {s:?}")),
    };
    Ok(s.to_string())
}

fn apply_seed(v: &Value, d: &mut Draft) -> Result<String, String> {
    let seed = match v {
        Value::Num(_, text) => text.parse().ok(),
        Value::Str(_) => None,
    };
    d.cfg.seed =
        seed.ok_or_else(|| format!("seeds must be non-negative integers, got {}", v.describe()))?;
    Ok(format!("seed={}", d.cfg.seed))
}

/// A `"base_entries/large_entries"` TLB geometry.
fn tlb(v: &Value, axis: &str) -> Result<(usize, usize), String> {
    let s = v.str(axis)?;
    pair(s, '/')
        .filter(|&(base, _)| base > 0)
        .ok_or_else(|| format!("{axis} must be \"base_entries/large_entries\", got {s:?}"))
}

/// Both halves of `"a<sep>b"`, parsed.
fn pair<T: std::str::FromStr>(s: &str, sep: char) -> Option<(T, T)> {
    let (a, b) = s.split_once(sep)?;
    Some((a.trim().parse().ok()?, b.trim().parse().ok()?))
}

/// Why a built config cannot run, if it cannot.
fn skip_reason(cfg: &RunConfig) -> Option<&'static str> {
    if cfg.oversubscription.is_some() && cfg.paging == DemandPagingMode::PreloadedFree {
        Some("oversubscription requires on-demand paging (preloading assumes everything fits)")
    } else if cfg.fragmentation.is_some() && !matches!(cfg.manager, ManagerKind::Mosaic(_)) {
        Some("fragmentation requires a Mosaic manager (only Mosaic pre-fragments memory)")
    } else {
        None
    }
}

impl Spec {
    /// Parses and validates one campaign file. Each axis value is checked
    /// by applying it to a throwaway point, so parsing and expansion
    /// accept exactly the same values.
    pub fn parse(text: &str) -> Result<Spec, ParseError> {
        let mut name = None;
        let mut scope = None;
        let mut in_matrix = false;
        let mut axes: Vec<Vec<Value>> = vec![Vec::new(); AXES.len()];

        for (i, raw) in text.lines().enumerate() {
            let lno = i + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(section) = line.strip_prefix('[') {
                let Some(section) = section.strip_suffix(']') else {
                    return err(lno, format!("malformed section header {line:?}"));
                };
                match section.trim() {
                    "matrix" => in_matrix = true,
                    other => return err(lno, format!("unknown section [{other}]")),
                }
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return err(lno, format!("expected key = value, got {line:?}"));
            };
            let key = key.trim();
            let values = parse_values(value, lno)?;
            let duplicate = || err(lno, format!("duplicate key {key:?}"));
            if !in_matrix {
                let one = || match values.as_slice() {
                    [v] => v.str(key).map_err(|message| ParseError { line: lno, message }),
                    _ => err(lno, format!("{key} takes a single value, not an array")),
                };
                match key {
                    "name" => {
                        let value = one()?;
                        if name.is_some() {
                            return duplicate();
                        }
                        name = Some(value.to_string());
                    }
                    "scope" if scope.is_some() => return duplicate(),
                    "scope" => {
                        scope = Some(match one()? {
                            "smoke" => CampaignScope::Smoke,
                            "default" => CampaignScope::Default,
                            "full" => CampaignScope::Full,
                            other => {
                                return err(
                                    lno,
                                    format!("scope must be smoke/default/full, got {other:?}"),
                                )
                            }
                        })
                    }
                    other => {
                        return err(
                            lno,
                            format!(
                                "unknown top-level key {other:?} (matrix axes go under [matrix])"
                            ),
                        )
                    }
                }
                continue;
            }
            let Some(slot) = AXES.iter().position(|a| a.key == key) else {
                return err(lno, format!("unknown matrix axis {key:?}"));
            };
            let mut labels = Vec::with_capacity(values.len());
            for v in &values {
                let mut throwaway =
                    Draft { workload: None, cfg: RunConfig::new(ManagerKind::GpuMmu4K) };
                let label = (AXES[slot].apply)(v, &mut throwaway)
                    .map_err(|message| ParseError { line: lno, message })?;
                if labels.contains(&label) {
                    let v = v.describe();
                    return err(
                        lno,
                        format!("{key} repeats a value: {v} applies as {label:?} again"),
                    );
                }
                labels.push(label);
            }
            if !axes[slot].is_empty() {
                return duplicate();
            }
            axes[slot] = values;
        }

        for (axis, values) in AXES.iter().zip(&mut axes) {
            match axis.absent {
                Absent::Required if values.is_empty() => {
                    return err(0, format!("missing required [matrix] axis {:?}", axis.key))
                }
                Absent::Use(value) if values.is_empty() => values.push(Value::Str(value.into())),
                _ => {}
            }
        }
        Ok(Spec {
            name: name.unwrap_or_else(|| "campaign".to_string()),
            scope: scope.unwrap_or(CampaignScope::Default),
            axes,
        })
    }

    /// Expands the cross product into the deterministic job list: an
    /// odometer over `AXES` whose last axis turns fastest. Invalid
    /// combinations are diverted to [`Campaign::skipped`] with a reason.
    pub fn expand(&self) -> Campaign {
        let base = RunConfig::new(ManagerKind::GpuMmu4K).with_scale(self.scope.scale());
        let radix = |values: &Vec<Value>| values.len().max(1);
        let total: usize = self.axes.iter().map(radix).product();
        let mut points = Vec::new();
        let mut skipped = Vec::new();
        for n in 0..total {
            let mut picks = vec![None; AXES.len()];
            let mut rest = n;
            for (pick, values) in picks.iter_mut().zip(&self.axes).rev() {
                *pick = values.get(rest % radix(values));
                rest /= radix(values);
            }
            let mut draft = Draft { workload: None, cfg: base };
            let mut label = Vec::new();
            for (axis, value) in AXES.iter().zip(picks) {
                let Some(value) = value else { continue };
                let before = draft.cfg;
                let text = (axis.apply)(value, &mut draft).expect("validated by Spec::parse");
                if axis.absent != Absent::Keep || draft.cfg != before {
                    label.push(text);
                }
            }
            let label = label.join(" ");
            let cfg = draft.cfg;
            match skip_reason(&cfg) {
                Some(reason) => skipped.push(SkippedPoint { label, reason: reason.to_string() }),
                None => {
                    let workload = draft.workload.expect("workloads is a required axis");
                    points.push(Point { label, workload, cfg });
                }
            }
        }
        Campaign { name: self.name.clone(), scope: self.scope, points, skipped }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_gpusim::DemandPagingMode;

    const SMOKE: &str = r#"
name = "t"
scope = "smoke"

[matrix]
workloads = ["MM", "MM+GUPS"]
managers = ["gpu-mmu", "mosaic"]
oversubscription = ["none", 2.0]
"#;

    #[test]
    fn parses_and_expands_the_cross_product() {
        let spec = Spec::parse(SMOKE).unwrap();
        assert_eq!(spec.name, "t");
        assert_eq!(spec.scope, CampaignScope::Smoke);
        let c = spec.expand();
        assert_eq!(c.points.len(), 2 * 2 * 2);
        assert!(c.skipped.is_empty());
        // Fixed nesting order: workload outermost, oversubscription inner.
        assert_eq!(c.points[0].label, "MM gpu-mmu");
        assert_eq!(c.points[1].label, "MM gpu-mmu over=2x");
        assert_eq!(c.points[2].label, "MM mosaic");
        assert_eq!(c.points[4].label, "MM+GUPS gpu-mmu");
        assert_eq!(c.points[1].cfg.oversubscription, Some(2.0));
        assert_eq!(c.points[0].cfg.scale.ws_divisor, 16, "smoke scale");
        assert_eq!(c.points[5].workload.app_count(), 2);
    }

    #[test]
    fn expansion_is_deterministic() {
        let a = Spec::parse(SMOKE).unwrap().expand();
        let b = Spec::parse(SMOKE).unwrap().expand();
        let labels = |c: &Campaign| c.points.iter().map(|p| p.label.clone()).collect::<Vec<_>>();
        assert_eq!(labels(&a), labels(&b));
        let cfgs =
            |c: &Campaign| c.points.iter().map(|p| format!("{:?}", p.cfg)).collect::<Vec<_>>();
        assert_eq!(cfgs(&a), cfgs(&b));
    }

    #[test]
    fn defaults_fill_every_optional_axis() {
        let spec = Spec::parse("[matrix]\nworkloads = [\"MM\"]").unwrap();
        assert_eq!(spec.name, "campaign");
        assert_eq!(spec.scope, CampaignScope::Default);
        let c = spec.expand();
        assert_eq!(c.points.len(), 1);
        assert_eq!(c.points[0].label, "MM mosaic");
        assert_eq!(c.points[0].cfg.scale, ScaleConfig::default());
    }

    #[test]
    fn invalid_combinations_are_skipped_with_reasons() {
        let spec = Spec::parse(
            "[matrix]\nworkloads = [\"MM\"]\npaging = [\"on-demand\", \"preloaded\"]\noversubscription = [\"none\", 2.0]",
        )
        .unwrap();
        let c = spec.expand();
        assert_eq!(c.points.len(), 3);
        assert_eq!(c.skipped.len(), 1);
        assert!(c.skipped[0].label.contains("preloaded"));
        assert!(c.skipped[0].reason.contains("on-demand"));
    }

    #[test]
    fn axis_values_reach_the_config() {
        let spec = Spec::parse(
            r#"
scope = "smoke"
[matrix]
workloads = ["GUPS"]
managers = ["ideal-tlb", "mosaic-nocac"]
fragmentation = ["none", "0.5:0.9"]
l1_tlb = ["64/8"]
l2_tlb = ["256/128"]
paging = ["preloaded"]
seeds = [7]
"#,
        )
        .unwrap();
        let c = spec.expand();
        assert_eq!(c.points.len(), 3, "ideal-tlb x fragmentation is skipped");
        let p = &c.points[0];
        assert!(p.cfg.system.ideal_tlb);
        assert_eq!(p.cfg.system.l1_tlb.base_entries, 64);
        assert_eq!(p.cfg.system.l1_tlb.large_entries, 8);
        assert_eq!(p.cfg.system.l2_tlb.base_entries, 256);
        assert_eq!(p.cfg.system.l2_tlb.large_entries, 128);
        assert_eq!(p.cfg.paging, DemandPagingMode::PreloadedFree);
        assert_eq!(p.cfg.seed, 7);
        assert_eq!(p.label, "GUPS ideal-tlb l1=64/8 l2=256/128 preloaded seed=7");
        let p = &c.points[2];
        assert_eq!(p.cfg.manager.label(), "Mosaic (no CAC)");
        assert_eq!(p.cfg.fragmentation, Some((0.5, 0.9)));
        assert_eq!(p.label, "GUPS mosaic-nocac l1=64/8 l2=256/128 frag=0.5:0.9 preloaded seed=7");
    }

    #[test]
    fn fragmentation_needs_a_mosaic_manager() {
        for (token, kind, _) in manager_tokens() {
            let spec = format!(
                "[matrix]\nworkloads = [\"MM\"]\nmanagers = [{token:?}]\nfragmentation = [\"1:0.5\"]"
            );
            let c = Spec::parse(&spec).unwrap().expand();
            if matches!(kind, ManagerKind::Mosaic(_)) {
                assert_eq!((c.points.len(), c.skipped.len()), (1, 0), "{token}");
            } else {
                assert_eq!((c.points.len(), c.skipped.len()), (0, 1), "{token}");
                assert_eq!(c.skipped[0].label, format!("MM {token} frag=1:0.5"));
                assert!(c.skipped[0].reason.contains("Mosaic"), "{token}");
            }
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = Spec::parse("[matrix]\nworkloads = [\"NOSUCHAPP\"]").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("NOSUCHAPP"));
        let e = Spec::parse("[matrix]\nworkloads = [\"MM\"]\nmanagers = [\"bogus\"]").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("bogus"));
        let e = Spec::parse("bogus_key = 1").unwrap_err();
        assert_eq!(e.line, 1);
        let e = Spec::parse("[matrix]\nworkloads = [\"MM\"]\nseeds = [1.5]").unwrap_err();
        assert_eq!(e.line, 3);
        let e =
            Spec::parse("[matrix]\nworkloads = [\"MM\"]\noversubscription = [0.5]").unwrap_err();
        assert_eq!(e.line, 3);
        let e = Spec::parse("scope = \"huge\"\n[matrix]\nworkloads = [\"MM\"]").unwrap_err();
        assert_eq!(e.line, 1);
        let e = Spec::parse("").unwrap_err();
        assert_eq!(e.line, 0, "missing workloads is a file-level error");
    }

    #[test]
    fn seeds_keep_full_precision() {
        let spec = "[matrix]\nworkloads = [\"MM\"]\nseeds = [9007199254740993]";
        let c = Spec::parse(spec).unwrap().expand();
        assert_eq!(c.points[0].cfg.seed, 9_007_199_254_740_993, "2^53 + 1 survives");
        assert_eq!(c.points[0].label, "MM mosaic seed=9007199254740993");
        for seed in ["18446744073709552000", "7.0", "1e3", "-1"] {
            let e = Spec::parse(&format!("[matrix]\nworkloads = [\"MM\"]\nseeds = [{seed}]"))
                .unwrap_err();
            assert_eq!(e.line, 3, "{seed}");
            assert_eq!(e.message, format!("seeds must be non-negative integers, got {seed}"));
        }
    }

    #[test]
    fn comments_and_scalars_are_accepted() {
        let spec = Spec::parse(
            "# header\nname = \"x\" # trailing\n[matrix]\nworkloads = \"MM\" # scalar axis\n",
        )
        .unwrap();
        assert_eq!(spec.name, "x");
        assert_eq!(spec.expand().points[0].label, "MM mosaic");
    }

    #[test]
    fn repeated_axis_values_are_rejected_on_their_line() {
        for (axis, values, repeated) in [
            ("managers", "[\"mosaic\", \"gpu-mmu\", \"mosaic\"]", "\"mosaic\""),
            ("fragmentation", "[\"0.5:0.9\", \"0.50:0.90\"]", "\"0.50:0.90\""),
            ("oversubscription", "[2, 2.0]", "2.0"),
            ("seeds", "[7, 7]", "7"),
        ] {
            let e = Spec::parse(&format!("[matrix]\nworkloads = [\"MM\"]\n{axis} = {values}\n"))
                .unwrap_err();
            assert_eq!(e.line, 3, "{axis}: {e}");
            assert!(e.message.starts_with(&format!("{axis} repeats a value: {repeated} ")), "{e}");
        }
        let e = Spec::parse("[matrix]\nworkloads = [\"MM\", \"GUPS\", \"MM\"]\n").unwrap_err();
        assert_eq!(
            (e.line, e.message.as_str()),
            (2, "workloads repeats a value: \"MM\" applies as \"MM\" again")
        );
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let e = Spec::parse("[matrix]\nworkloads = [\"MM\"]\nworkloads = [\"GUPS\"]").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("duplicate"));
    }
}
