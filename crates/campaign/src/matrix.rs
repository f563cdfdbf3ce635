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
//! seeds = [42]
//! paging = ["on-demand"]                  # on-demand | preloaded
//! oversubscription = ["none", 2.0]        # none | factor >= 1.0
//! fragmentation = ["none", "0.6:0.85"]    # none | index:occupancy
//! l1_tlb = ["128/16"]                     # base/large entries per SM
//! l2_tlb = ["512/256"]                    # shared, base/large entries
//! ```
//!
//! Only `workloads` is required; every other axis defaults to the single
//! baseline value. Expansion nests the axes in one fixed order
//! (workloads, managers, l1, l2, fragmentation, oversubscription,
//! paging, seeds), so a given file always yields the same job list in
//! the same order — the property resumable campaigns rely on.
//! Semantically invalid combinations (preloaded paging with
//! oversubscription) are skipped deterministically and reported, never
//! silently dropped.

use mosaic_gpusim::{manager_tokens, ManagerKind, RunConfig};
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
    /// Workload mixes, each `"APP"` or `"APP+APP+..."`.
    pub workloads: Vec<String>,
    /// Manager tokens (see [`mosaic_gpusim::manager_tokens`]).
    pub managers: Vec<String>,
    /// Master seeds.
    pub seeds: Vec<u64>,
    /// Paging modes (`"on-demand"` / `"preloaded"`).
    pub paging: Vec<String>,
    /// Oversubscription factors; `None` = fits in memory.
    pub oversubscription: Vec<Option<f64>>,
    /// Pre-fragmentation `(index, occupancy)` points; `None` = pristine.
    pub fragmentation: Vec<Option<(f64, f64)>>,
    /// L1 TLB geometries as `(base_entries, large_entries)`.
    pub l1_tlb: Vec<(usize, usize)>,
    /// L2 TLB geometries as `(base_entries, large_entries)`.
    pub l2_tlb: Vec<(usize, usize)>,
}

/// One expanded campaign point.
#[derive(Debug, Clone)]
pub struct Point {
    /// Human-facing label: workload and manager plus any non-default
    /// axis values.
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

/// One scalar value of the TOML subset.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    Num(f64),
}

impl Value {
    fn describe(&self) -> String {
        match self {
            Value::Str(s) => format!("{s:?}"),
            Value::Num(n) => format!("{n}"),
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
        Ok(n) if n.is_finite() => Ok(Value::Num(n)),
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

fn expect_str(v: &Value, line: usize, what: &str) -> Result<String, ParseError> {
    match v {
        Value::Str(s) => Ok(s.clone()),
        Value::Num(_) => err(line, format!("{what} must be a quoted string, got {}", v.describe())),
    }
}

fn parse_seed(v: &Value, line: usize) -> Result<u64, ParseError> {
    match v {
        Value::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= u64::MAX as f64 => Ok(*n as u64),
        _ => err(line, format!("seeds must be non-negative integers, got {}", v.describe())),
    }
}

fn parse_oversub(v: &Value, line: usize) -> Result<Option<f64>, ParseError> {
    match v {
        Value::Str(s) if s == "none" => Ok(None),
        Value::Num(n) if *n >= 1.0 => Ok(Some(*n)),
        _ => err(
            line,
            format!("oversubscription must be \"none\" or a factor >= 1.0, got {}", v.describe()),
        ),
    }
}

fn parse_fragmentation(v: &Value, line: usize) -> Result<Option<(f64, f64)>, ParseError> {
    let s = expect_str(v, line, "fragmentation")?;
    if s == "none" {
        return Ok(None);
    }
    let parsed = s.split_once(':').and_then(|(i, o)| {
        let (i, o) = (i.trim().parse::<f64>().ok()?, o.trim().parse::<f64>().ok()?);
        ((0.0..=1.0).contains(&i) && (0.0..=1.0).contains(&o)).then_some((i, o))
    });
    match parsed {
        Some(p) => Ok(Some(p)),
        None => err(
            line,
            format!("fragmentation must be \"none\" or \"index:occupancy\" with both in [0, 1], got {s:?}"),
        ),
    }
}

fn parse_tlb(v: &Value, line: usize, axis: &str) -> Result<(usize, usize), ParseError> {
    let s = expect_str(v, line, axis)?;
    let parsed = s.split_once('/').and_then(|(b, l)| {
        let (b, l) = (b.trim().parse::<usize>().ok()?, l.trim().parse::<usize>().ok()?);
        (b > 0).then_some((b, l))
    });
    match parsed {
        Some(p) => Ok(p),
        None => err(line, format!("{axis} must be \"base_entries/large_entries\", got {s:?}")),
    }
}

fn parse_workload_spec(v: &Value, line: usize) -> Result<String, ParseError> {
    let s = expect_str(v, line, "workloads")?;
    if s.is_empty() {
        return err(line, "empty workload spec");
    }
    for app in s.split('+') {
        if AppProfile::by_name(app.trim()).is_none() {
            return err(line, format!("unknown application {:?} in workload {s:?}", app.trim()));
        }
    }
    Ok(s)
}

fn parse_manager_token(v: &Value, line: usize) -> Result<String, ParseError> {
    let s = expect_str(v, line, "managers")?;
    if ManagerKind::from_token(&s).is_some() {
        Ok(s)
    } else {
        let tokens = manager_tokens().map(|(t, ..)| t);
        err(line, format!("unknown manager {s:?} (expected one of {tokens:?})"))
    }
}

fn parse_paging_token(v: &Value, line: usize) -> Result<String, ParseError> {
    let s = expect_str(v, line, "paging")?;
    match s.as_str() {
        "on-demand" | "preloaded" => Ok(s),
        _ => err(line, format!("paging must be \"on-demand\" or \"preloaded\", got {s:?}")),
    }
}

impl Spec {
    /// Parses and validates one campaign file.
    pub fn parse(text: &str) -> Result<Spec, ParseError> {
        let mut name = None;
        let mut scope = CampaignScope::Default;
        let mut in_matrix = false;
        let mut workloads = None;
        let mut managers = None;
        let mut seeds = None;
        let mut paging = None;
        let mut oversubscription = None;
        let mut fragmentation = None;
        let mut l1_tlb = None;
        let mut l2_tlb = None;

        fn set<T>(
            slot: &mut Option<T>,
            value: T,
            key: &str,
            line: usize,
        ) -> Result<(), ParseError> {
            if slot.is_some() {
                return err(line, format!("duplicate key {key:?}"));
            }
            *slot = Some(value);
            Ok(())
        }

        let mut scope_set = false;
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
            let one = |what: &str| -> Result<&Value, ParseError> {
                if values.len() == 1 {
                    Ok(&values[0])
                } else {
                    err(lno, format!("{what} takes a single value, not an array"))
                }
            };
            if !in_matrix {
                match key {
                    "name" => {
                        set(&mut name, expect_str(one("name")?, lno, "name")?, key, lno)?;
                    }
                    "scope" => {
                        if scope_set {
                            return err(lno, "duplicate key \"scope\"");
                        }
                        scope_set = true;
                        scope = match expect_str(one("scope")?, lno, "scope")?.as_str() {
                            "smoke" => CampaignScope::Smoke,
                            "default" => CampaignScope::Default,
                            "full" => CampaignScope::Full,
                            other => {
                                return err(
                                    lno,
                                    format!("scope must be smoke/default/full, got {other:?}"),
                                )
                            }
                        };
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
            match key {
                "workloads" => {
                    let parsed = values
                        .iter()
                        .map(|v| parse_workload_spec(v, lno))
                        .collect::<Result<Vec<_>, _>>()?;
                    set(&mut workloads, parsed, key, lno)?;
                }
                "managers" => {
                    let parsed = values
                        .iter()
                        .map(|v| parse_manager_token(v, lno))
                        .collect::<Result<Vec<_>, _>>()?;
                    set(&mut managers, parsed, key, lno)?;
                }
                "seeds" => {
                    let parsed =
                        values.iter().map(|v| parse_seed(v, lno)).collect::<Result<Vec<_>, _>>()?;
                    set(&mut seeds, parsed, key, lno)?;
                }
                "paging" => {
                    let parsed = values
                        .iter()
                        .map(|v| parse_paging_token(v, lno))
                        .collect::<Result<Vec<_>, _>>()?;
                    set(&mut paging, parsed, key, lno)?;
                }
                "oversubscription" => {
                    let parsed = values
                        .iter()
                        .map(|v| parse_oversub(v, lno))
                        .collect::<Result<Vec<_>, _>>()?;
                    set(&mut oversubscription, parsed, key, lno)?;
                }
                "fragmentation" => {
                    let parsed = values
                        .iter()
                        .map(|v| parse_fragmentation(v, lno))
                        .collect::<Result<Vec<_>, _>>()?;
                    set(&mut fragmentation, parsed, key, lno)?;
                }
                "l1_tlb" => {
                    let parsed = values
                        .iter()
                        .map(|v| parse_tlb(v, lno, "l1_tlb"))
                        .collect::<Result<Vec<_>, _>>()?;
                    set(&mut l1_tlb, parsed, key, lno)?;
                }
                "l2_tlb" => {
                    let parsed = values
                        .iter()
                        .map(|v| parse_tlb(v, lno, "l2_tlb"))
                        .collect::<Result<Vec<_>, _>>()?;
                    set(&mut l2_tlb, parsed, key, lno)?;
                }
                other => return err(lno, format!("unknown matrix axis {other:?}")),
            }
        }

        let Some(workloads) = workloads else {
            return err(0, "missing required [matrix] axis \"workloads\"");
        };
        Ok(Spec {
            name: name.unwrap_or_else(|| "campaign".to_string()),
            scope,
            workloads,
            managers: managers.unwrap_or_else(|| vec!["mosaic".to_string()]),
            seeds: seeds.unwrap_or_else(|| vec![42]),
            paging: paging.unwrap_or_else(|| vec!["on-demand".to_string()]),
            oversubscription: oversubscription.unwrap_or_else(|| vec![None]),
            fragmentation: fragmentation.unwrap_or_else(|| vec![None]),
            l1_tlb: l1_tlb.unwrap_or_else(|| vec![(128, 16)]),
            l2_tlb: l2_tlb.unwrap_or_else(|| vec![(512, 256)]),
        })
    }

    /// Expands the cross product into the deterministic job list.
    ///
    /// Nesting order is fixed (workloads, managers, l1, l2,
    /// fragmentation, oversubscription, paging, seeds); invalid
    /// combinations are diverted to [`Campaign::skipped`] with a reason.
    pub fn expand(&self) -> Campaign {
        let base = RunConfig::new(ManagerKind::GpuMmu4K).with_scale(self.scope.scale());
        let mut points = Vec::new();
        let mut skipped = Vec::new();
        for wl in &self.workloads {
            let names: Vec<&str> = wl.split('+').map(str::trim).collect();
            let workload = Workload::from_names(&names);
            for mgr in &self.managers {
                for &l1 in &self.l1_tlb {
                    for &l2 in &self.l2_tlb {
                        for &frag in &self.fragmentation {
                            for &over in &self.oversubscription {
                                for paging in &self.paging {
                                    for &seed in &self.seeds {
                                        let mut label = format!("{wl} {mgr}");
                                        let mut cfg = base;
                                        (cfg.manager, cfg.system.ideal_tlb) =
                                            ManagerKind::from_token(mgr)
                                                .expect("manager token passed validation");
                                        if l1
                                            != (
                                                base.system.l1_tlb.base_entries,
                                                base.system.l1_tlb.large_entries,
                                            )
                                        {
                                            label.push_str(&format!(" l1={}/{}", l1.0, l1.1));
                                        }
                                        cfg.system.l1_tlb.base_entries = l1.0;
                                        cfg.system.l1_tlb.large_entries = l1.1;
                                        if l2
                                            != (
                                                base.system.l2_tlb.base_entries,
                                                base.system.l2_tlb.large_entries,
                                            )
                                        {
                                            label.push_str(&format!(" l2={}/{}", l2.0, l2.1));
                                        }
                                        cfg.system.l2_tlb.base_entries = l2.0;
                                        cfg.system.l2_tlb.large_entries = l2.1;
                                        if let Some((i, o)) = frag {
                                            label.push_str(&format!(" frag={i}:{o}"));
                                        }
                                        cfg.fragmentation = frag;
                                        if let Some(f) = over {
                                            label.push_str(&format!(" over={f}x"));
                                        }
                                        if paging == "preloaded" {
                                            label.push_str(" preloaded");
                                            cfg = cfg.preloaded();
                                        }
                                        if seed != 42 {
                                            label.push_str(&format!(" seed={seed}"));
                                        }
                                        cfg.seed = seed;
                                        if let Some(f) = over {
                                            if paging == "preloaded" {
                                                skipped.push(SkippedPoint {
                                                    label,
                                                    reason: "oversubscription requires on-demand paging (preloading assumes everything fits)".to_string(),
                                                });
                                                continue;
                                            }
                                            cfg = cfg.oversubscribed(f);
                                        }
                                        points.push(Point {
                                            label,
                                            workload: workload.clone(),
                                            cfg,
                                        });
                                    }
                                }
                            }
                        }
                    }
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
        assert_eq!(spec.managers, vec!["mosaic"]);
        assert_eq!(spec.seeds, vec![42]);
        assert_eq!(spec.paging, vec!["on-demand"]);
        assert_eq!(spec.oversubscription, vec![None]);
        assert_eq!(spec.fragmentation, vec![None]);
        assert_eq!(spec.l1_tlb, vec![(128, 16)]);
        assert_eq!(spec.l2_tlb, vec![(512, 256)]);
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
fragmentation = ["0.5:0.9"]
l1_tlb = ["64/8"]
l2_tlb = ["256/128"]
paging = ["preloaded"]
seeds = [7]
"#,
        )
        .unwrap();
        let c = spec.expand();
        assert_eq!(c.points.len(), 2);
        let p = &c.points[0];
        assert!(p.cfg.system.ideal_tlb);
        assert_eq!(p.cfg.system.l1_tlb.base_entries, 64);
        assert_eq!(p.cfg.system.l1_tlb.large_entries, 8);
        assert_eq!(p.cfg.system.l2_tlb.base_entries, 256);
        assert_eq!(p.cfg.system.l2_tlb.large_entries, 128);
        assert_eq!(p.cfg.fragmentation, Some((0.5, 0.9)));
        assert_eq!(p.cfg.paging, DemandPagingMode::PreloadedFree);
        assert_eq!(p.cfg.seed, 7);
        assert_eq!(p.label, "GUPS ideal-tlb l1=64/8 l2=256/128 frag=0.5:0.9 preloaded seed=7");
        assert_eq!(c.points[1].cfg.manager.label(), "Mosaic (no CAC)");
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
    fn comments_and_scalars_are_accepted() {
        let spec = Spec::parse(
            "# header\nname = \"x\" # trailing\n[matrix]\nworkloads = \"MM\" # scalar axis\n",
        )
        .unwrap();
        assert_eq!(spec.name, "x");
        assert_eq!(spec.workloads, vec!["MM"]);
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let e = Spec::parse("[matrix]\nworkloads = [\"MM\"]\nworkloads = [\"GUPS\"]").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("duplicate"));
    }
}
