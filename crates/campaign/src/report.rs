//! Machine-readable campaign reports: JSON emission, parsing, and the
//! `compare` diff.
//!
//! A report is replayable from its header alone (`seed`, `budget_states`,
//! `schedule`): re-running with those inputs reproduces the canonical
//! section byte-for-byte, on any worker-thread count. Host facts that
//! legitimately vary between runs (wall-clock, thread count) live in the
//! `host` object, which [`CampaignReport::canonical_string`] strips.
//!
//! **One schema rule.** Optional blocks are additive: a block that a run
//! did not produce (`telemetry`, `diagnostics`, `natural_resilience`, the
//! `registry` / `faults` / `dense_units` / `shard` headers) is absent from
//! the document and parses as `None` or the default — no new generation.
//! [`CampaignReport::parse`] accepts exactly [`SCHEMA`], so anything that
//! parses can also be re-run.

use adcc_dist::net::FaultProfile;
use adcc_resilience::{DirtyClass, DirtyClassCounts, NaturalResilience, Tolerance};
use adcc_telemetry::{adr_eadr_costs, ExecutionProfile};

use crate::json::Json;
use crate::memstats::ImageMemorySummary;
use crate::outcome::OutcomeCounts;
use crate::scenario::Registry;

/// The report format identifier, the one generation
/// [`CampaignReport::parse`] accepts (bump on breaking schema changes).
pub const SCHEMA: &str = "adcc-campaign-report/v7";

/// An optional block of a scenario row, kept out of line: a row without it
/// holds a pointer, not the block's size, and callers keep whole campaigns
/// of rows alive. It is read like the `Option<T>` of a `Copy` block it
/// replaces — through a shared reference, yielding `&T` — because callers
/// that cannot be edited do exactly that (`s.telemetry.map_or(..)`,
/// `s.telemetry.unwrap().log_bytes` on a `&ScenarioReport`), which a bare
/// `Option<Box<T>>` would refuse as a move out of a borrow.
#[derive(Debug, Clone, PartialEq)]
pub struct Boxed<T>(Option<Box<T>>);

impl<T> Boxed<T> {
    /// The block, if present.
    pub fn as_ref(&self) -> Option<&T> {
        self.0.as_deref()
    }

    /// Whether the block is present.
    pub fn is_some(&self) -> bool {
        self.0.is_some()
    }

    /// Whether the block is absent.
    pub fn is_none(&self) -> bool {
        self.0.is_none()
    }

    /// `f` of the block, or `default` without one.
    pub fn map_or<U>(&self, default: U, f: impl FnOnce(&T) -> U) -> U {
        self.as_ref().map_or(default, f)
    }

    /// The block; panics without one.
    pub fn unwrap(&self) -> &T {
        self.as_ref().expect("the report carries the block")
    }
}

impl<T> From<Option<T>> for Boxed<T> {
    fn from(block: Option<T>) -> Self {
        Boxed(block.map(Box::new))
    }
}

/// Aggregated results for one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Unique scenario name.
    pub name: String,
    /// Kernel family.
    pub kernel: String,
    /// Persistence mechanism.
    pub mechanism: String,
    /// Platform preset.
    pub platform: String,
    /// Size of the scenario's crash-point space.
    pub total_units: u64,
    /// Crash states actually evaluated (budget-limited).
    pub trials: u64,
    /// Outcome histogram over the trials.
    pub outcomes: OutcomeCounts,
    /// Work units re-executed by recovery, summed over trials.
    pub lost_units_total: u64,
    /// Largest single-trial re-execution.
    pub lost_units_max: u64,
    /// Simulated recovery clock (detect + resume), summed, picoseconds.
    pub sim_time_ps_total: u64,
    /// Forward-execution cost profile summed over trials (present when the
    /// campaign ran with telemetry enabled).
    pub telemetry: Boxed<ExecutionProfile>,
    /// Dirty-restart sweep aggregate (present when the campaign ran the
    /// resilience sweep). Scenarios without a
    /// dirty-restart path (e.g. the `ds` op-stream workloads) carry no
    /// block even in a resilience run.
    pub natural_resilience: Boxed<NaturalResilience>,
}

/// One persist-order sanitizer finding, flattened to schema-plain
/// fields (the category is its stable kebab-case name, e.g.
/// `"unpersisted-store"`; event indices refer to the scenario's recorded
/// event stream for the named crash unit sweep).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiagnosticRecord {
    /// Scenario the finding came from.
    pub scenario: String,
    /// Stable diagnostic category name (`adcc_analyze::Category::name`).
    pub category: String,
    /// Declared region (allocation) the offending line belongs to.
    pub region: String,
    /// The offending cache line.
    pub line: u64,
    /// Event index opening the violation window.
    pub first_event: u64,
    /// Event index closing the window (fence, crash mark, or stream end).
    pub last_event: u64,
    /// Line-journal epoch of the opening event.
    pub epoch: u64,
}

/// The `diagnostics` block: which scenarios ran under the analyzer,
/// and every protocol finding the sanitizer raised. A clean tree emits
/// the block with an empty `findings` array, so CI can distinguish
/// "analyzed and clean" from "not analyzed".
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DiagnosticsBlock {
    /// Names of the scenarios swept with the analyzer attached.
    pub analyzed: Vec<String>,
    /// Deduplicated protocol findings, in deterministic order.
    pub findings: Vec<DiagnosticRecord>,
}

impl DiagnosticsBlock {
    fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.push(
            "analyzed",
            Json::Arr(self.analyzed.iter().map(|s| Json::Str(s.clone())).collect()),
        );
        let findings = self
            .findings
            .iter()
            .map(|f| {
                let mut e = Json::obj();
                e.push("scenario", Json::Str(f.scenario.clone()));
                e.push("category", Json::Str(f.category.clone()));
                e.push("region", Json::Str(f.region.clone()));
                e.push("line", Json::Int(f.line));
                e.push("first_event", Json::Int(f.first_event));
                e.push("last_event", Json::Int(f.last_event));
                e.push("epoch", Json::Int(f.epoch));
                e
            })
            .collect();
        j.push("findings", Json::Arr(findings));
        j
    }

    fn from_json(j: &Json) -> Result<DiagnosticsBlock, String> {
        let analyzed = j
            .get("analyzed")
            .and_then(Json::as_arr)
            .ok_or("diagnostics missing analyzed")?
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "diagnostics analyzed entry is not a string".to_string())
            })
            .collect::<Result<Vec<_>, String>>()?;
        let findings = j
            .get("findings")
            .and_then(Json::as_arr)
            .ok_or("diagnostics missing findings")?
            .iter()
            .map(|e| {
                let s = |key: &str| -> Result<String, String> {
                    e.get(key)
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("finding missing {key}"))
                };
                let n = |key: &str| -> Result<u64, String> {
                    e.get(key)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("finding missing {key}"))
                };
                Ok(DiagnosticRecord {
                    scenario: s("scenario")?,
                    category: s("category")?,
                    region: s("region")?,
                    line: n("line")?,
                    first_event: n("first_event")?,
                    last_event: n("last_event")?,
                    epoch: n("epoch")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(DiagnosticsBlock { analyzed, findings })
    }
}

/// One full campaign run.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Seed the schedule was derived from.
    pub seed: u64,
    /// Campaign-wide crash-state budget.
    pub budget_states: u64,
    /// Schedule spelling (see `Schedule::name`).
    pub schedule: String,
    /// Extra access-grain crash points per scenario (see
    /// `CampaignConfig::dense_units`). Emitted in the canonical form only
    /// when nonzero, so legacy-space reports keep their exact bytes.
    pub dense_units: u64,
    /// Which named scenario registry this campaign swept. Emitted as
    /// `"registry": "<name>"` only when non-default, so compute-kernel
    /// reports carry no extra header field.
    pub registry: Registry,
    /// Fabric fault profile the campaign injected (dist registry).
    /// Emitted as `"faults": "<name>"` only when not `off`, so faultless
    /// reports carry no extra header field.
    pub faults: FaultProfile,
    /// `Some((i, n))` marks a partial report: shard `i` of an `n`-way
    /// positional split of the schedule (emitted as `"shard": "i/n"`).
    /// [`CampaignReport::merge_shards`] folds a complete shard set back
    /// into an unmarked report; unsharded runs carry no field at all, so
    /// merged and unsharded reports are byte-identical.
    pub shard: Option<(u64, u64)>,
    /// Per-scenario aggregates, in registry order.
    pub scenarios: Vec<ScenarioReport>,
    /// Campaign-wide outcome histogram.
    pub totals: OutcomeCounts,
    /// Campaign-wide telemetry aggregate (when enabled).
    pub telemetry: Option<Box<ExecutionProfile>>,
    /// Persist-order sanitizer findings (when the campaign ran with the
    /// analyzer attached). Emitted only when present, so plain reports
    /// carry no trace of it.
    pub diagnostics: Option<DiagnosticsBlock>,
    /// Crash-image memory accounting of the run's harness (host facts;
    /// excluded from the canonical form, deterministic nevertheless).
    pub image_memory: ImageMemorySummary,
    /// Milliseconds of host wall-clock (excluded from the canonical form).
    pub wall_clock_ms: u64,
    /// Worker threads used (excluded from the canonical form).
    pub threads: u64,
}

/// Serialize one telemetry aggregate as a JSON object. The three derived
/// fields (`consistency_window_ps`, `adr_cost_ps`, `eadr_cost_ps`) are
/// recomputed from the counters on every emission, so parse → emit stays
/// byte-identical without storing them.
fn telemetry_json(t: &ExecutionProfile) -> Json {
    let (adr, eadr) = adr_eadr_costs(t);
    let mut j = Json::obj();
    for (name, value) in t.counters() {
        j.push(name, Json::Int(value));
    }
    j.push(
        "consistency_window_ps",
        Json::Int(t.consistency_window_ps()),
    );
    j.push("dirty_data_rate_ppm", Json::Int(t.dirty_data_rate_ppm()));
    j.push("adr_cost_ps", Json::Int(adr));
    j.push("eadr_cost_ps", Json::Int(eadr));
    j
}

/// Parse a telemetry block emitted by [`telemetry_json`] (derived fields
/// are ignored; they are recomputed at emission).
fn telemetry_from_json(j: &Json) -> Result<ExecutionProfile, String> {
    ExecutionProfile::from_counters(|key| {
        j.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("telemetry missing {key}"))
    })
}

/// Serialize one natural-resilience aggregate as a JSON object. The
/// derived fields (`trials`, the per-class `rate_ppm` map,
/// `mean_extra_units_milli`) are recomputed from the counters on every
/// emission, so parse → emit stays byte-identical without storing them.
fn resilience_json(r: &NaturalResilience) -> Json {
    let mut tol = Json::obj();
    tol.push("exact", Json::Float(r.tolerance.exact));
    tol.push("acceptable", Json::Float(r.tolerance.acceptable));
    tol.push("divergence", Json::Float(r.tolerance.divergence));
    let mut classes = Json::obj();
    let mut rates = Json::obj();
    for c in DirtyClass::ALL {
        classes.push(c.name(), Json::Int(r.classes.get(c)));
        rates.push(c.name(), Json::Int(r.rate_ppm(c)));
    }
    let mut j = Json::obj();
    j.push("tolerance", tol);
    j.push("trials", Json::Int(r.trials()));
    j.push("classes", classes);
    j.push("rate_ppm", rates);
    j.push("extra_units_total", Json::Int(r.extra_units_total));
    j.push(
        "mean_extra_units_milli",
        match r.mean_extra_units_milli() {
            Some(v) => Json::Int(v),
            None => Json::Null,
        },
    );
    j.push("sim_time_ps_total", Json::Int(r.sim_time_ps_total));
    j
}

/// Parse a block emitted by [`resilience_json`] (derived fields are
/// ignored; they are recomputed at emission).
fn resilience_from_json(j: &Json) -> Result<NaturalResilience, String> {
    let tol = j
        .get("tolerance")
        .ok_or("natural_resilience missing tolerance")?;
    let f = |key: &str| -> Result<f64, String> {
        match tol.get(key) {
            Some(Json::Float(v)) => Ok(*v),
            Some(Json::Int(v)) => Ok(*v as f64),
            _ => Err(format!("tolerance missing {key}")),
        }
    };
    let tolerance = Tolerance {
        exact: f("exact")?,
        acceptable: f("acceptable")?,
        divergence: f("divergence")?,
    };
    if !(tolerance.exact >= 0.0
        && tolerance.exact <= tolerance.acceptable
        && tolerance.acceptable <= tolerance.divergence)
    {
        return Err(format!("tolerance ladder out of order: {tolerance:?}"));
    }
    let cj = j
        .get("classes")
        .ok_or("natural_resilience missing classes")?;
    let mut classes = DirtyClassCounts::default();
    for c in DirtyClass::ALL {
        *classes.slot_mut(c) = cj
            .get(c.name())
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("classes missing {}", c.name()))?;
    }
    let n = |key: &str| -> Result<u64, String> {
        j.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("natural_resilience missing {key}"))
    };
    Ok(NaturalResilience {
        tolerance,
        classes,
        extra_units_total: n("extra_units_total")?,
        sim_time_ps_total: n("sim_time_ps_total")?,
    })
}

/// Parse a shard marker spelled `"i/n"` (shard `i` of `n`, `i < n`).
pub fn parse_shard(text: &str) -> Result<(u64, u64), String> {
    let bad = || format!("bad shard {text:?} (want I/N with I < N)");
    let (i, n) = text.split_once('/').ok_or_else(bad)?;
    let i: u64 = i.parse().map_err(|_| bad())?;
    let n: u64 = n.parse().map_err(|_| bad())?;
    if n == 0 || i >= n {
        return Err(bad());
    }
    Ok((i, n))
}

impl CampaignReport {
    /// Campaign-wide silent-corruption count (any nonzero value fails CI).
    pub fn silent_corruption_total(&self) -> u64 {
        self.totals.silent_corruption
    }

    /// Fold a complete set of shard reports back into one canonical
    /// report. Requires every input to be a shard of the *same* campaign
    /// (equal seed, budget, schedule, dense extension, and registry) and
    /// the shard set to be exactly `0..n` — duplicates (overlap), gaps,
    /// mixed shard counts, and unsharded inputs are all errors.
    ///
    /// Every per-scenario aggregate is additive (`lost_units_max` folds
    /// with `max`, telemetry field-wise sums), so the merge is
    /// order-independent and — because the shards positionally tile the
    /// unsharded schedule — the result's canonical form is byte-identical
    /// to a single run of the same inputs. Host facts (image memory,
    /// wall-clock) are summed; they never enter the canonical form.
    pub fn merge_shards(partials: &[CampaignReport]) -> Result<CampaignReport, String> {
        let first = partials.first().ok_or("merge needs at least one shard")?;
        let Some((_, n)) = first.shard else {
            return Err("input is not a shard (no shard marker)".into());
        };
        let mut seen = vec![false; n as usize];
        for p in partials {
            let Some((i, pn)) = p.shard else {
                return Err("input is not a shard (no shard marker)".into());
            };
            if pn != n {
                return Err(format!("mixed shard counts: {pn}-way shard among {n}-way"));
            }
            if p.seed != first.seed
                || p.budget_states != first.budget_states
                || p.schedule != first.schedule
                || p.dense_units != first.dense_units
                || p.registry != first.registry
                || p.faults != first.faults
            {
                return Err(format!(
                    "shard {i}/{n} is from a different campaign \
                     (seed {} vs {}, budget {} vs {}, schedule {} vs {})",
                    p.seed,
                    first.seed,
                    p.budget_states,
                    first.budget_states,
                    p.schedule,
                    first.schedule
                ));
            }
            if seen[i as usize] {
                return Err(format!("overlapping shards: shard {i}/{n} appears twice"));
            }
            seen[i as usize] = true;
        }
        if let Some(missing) = seen.iter().position(|s| !s) {
            return Err(format!(
                "incomplete shard set: shard {missing}/{n} is missing"
            ));
        }

        let mut scenarios: Vec<ScenarioReport> = first.scenarios.clone();
        // Sharded runs never carry a resilience sweep (`campaign run`
        // refuses `--resilience` with `--shard`), so merged scenarios carry
        // no block.
        for s in &mut scenarios {
            s.natural_resilience = None.into();
        }
        for p in &partials[1..] {
            if p.scenarios.len() != scenarios.len() {
                return Err("shards disagree on the scenario registry".into());
            }
            for (acc, s) in scenarios.iter_mut().zip(&p.scenarios) {
                if acc.name != s.name
                    || acc.kernel != s.kernel
                    || acc.mechanism != s.mechanism
                    || acc.platform != s.platform
                    || acc.total_units != s.total_units
                {
                    return Err(format!(
                        "shards disagree on scenario {:?} vs {:?}",
                        acc.name, s.name
                    ));
                }
                acc.trials += s.trials;
                acc.outcomes.merge(&s.outcomes);
                acc.lost_units_total += s.lost_units_total;
                acc.lost_units_max = acc.lost_units_max.max(s.lost_units_max);
                acc.sim_time_ps_total += s.sim_time_ps_total;
                if let Some(t) = s.telemetry.as_ref() {
                    let mut sum = acc.telemetry.as_ref().copied().unwrap_or_default();
                    sum.merge(t);
                    acc.telemetry = Some(sum).into();
                }
            }
        }

        let mut totals = OutcomeCounts::default();
        let mut telemetry: Option<Box<ExecutionProfile>> = None;
        for s in &scenarios {
            totals.merge(&s.outcomes);
            if let Some(t) = s.telemetry.as_ref() {
                telemetry.get_or_insert_with(Box::default).merge(t);
            }
        }
        let mut image_memory = ImageMemorySummary {
            distinct_states: Some(0),
            ..ImageMemorySummary::default()
        };
        let mut wall_clock_ms = 0;
        let mut threads = 0;
        for p in partials {
            let m = &p.image_memory;
            image_memory.executions += m.executions;
            image_memory.images += m.images;
            // Known only if every shard knew it.
            image_memory.distinct_states = image_memory
                .distinct_states
                .zip(m.distinct_states)
                .map(|(a, b)| a + b);
            image_memory.base_bytes += m.base_bytes;
            image_memory.delta_bytes += m.delta_bytes;
            image_memory.full_copy_bytes += m.full_copy_bytes;
            image_memory.peak_live_bytes = image_memory.peak_live_bytes.max(m.peak_live_bytes);
            wall_clock_ms += p.wall_clock_ms;
            threads = threads.max(p.threads);
        }
        Ok(CampaignReport {
            seed: first.seed,
            budget_states: first.budget_states,
            schedule: first.schedule.clone(),
            dense_units: first.dense_units,
            registry: first.registry,
            faults: first.faults,
            shard: None,
            scenarios,
            totals,
            telemetry,
            // Sharded runs never attach the analyzer (the `triage`
            // subcommand rejects shard reports), so there is nothing to
            // fold here.
            diagnostics: None,
            image_memory,
            wall_clock_ms,
            threads,
        })
    }

    fn body_json(&self) -> Json {
        let mut j = Json::obj();
        j.push("schema", Json::Str(SCHEMA.into()));
        j.push("seed", Json::Int(self.seed));
        j.push("budget_states", Json::Int(self.budget_states));
        j.push("schedule", Json::Str(self.schedule.clone()));
        if self.dense_units > 0 {
            j.push("dense_units", Json::Int(self.dense_units));
        }
        if self.registry != Registry::Kernel {
            j.push("registry", Json::Str(self.registry.name().into()));
        }
        if self.faults != FaultProfile::Off {
            j.push("faults", Json::Str(self.faults.name().into()));
        }
        if let Some((i, n)) = self.shard {
            j.push("shard", Json::Str(format!("{i}/{n}")));
        }
        let scenarios = self
            .scenarios
            .iter()
            .map(|s| {
                let mut e = Json::obj();
                e.push("name", Json::Str(s.name.clone()));
                e.push("kernel", Json::Str(s.kernel.clone()));
                e.push("mechanism", Json::Str(s.mechanism.clone()));
                e.push("platform", Json::Str(s.platform.clone()));
                e.push("total_units", Json::Int(s.total_units));
                e.push("trials", Json::Int(s.trials));
                e.push("outcomes", s.outcomes.to_json());
                e.push("lost_units_total", Json::Int(s.lost_units_total));
                e.push("lost_units_max", Json::Int(s.lost_units_max));
                e.push("sim_time_ps_total", Json::Int(s.sim_time_ps_total));
                if let Some(t) = s.telemetry.as_ref() {
                    e.push("telemetry", telemetry_json(t));
                }
                if let Some(r) = s.natural_resilience.as_ref() {
                    e.push("natural_resilience", resilience_json(r));
                }
                e
            })
            .collect();
        j.push("scenarios", Json::Arr(scenarios));
        j.push("totals", self.totals.to_json());
        if let Some(t) = &self.telemetry {
            j.push("telemetry", telemetry_json(t));
        }
        if let Some(d) = &self.diagnostics {
            j.push("diagnostics", d.to_json());
        }
        j
    }

    /// Full JSON document, host section included.
    pub fn to_string_pretty(&self) -> String {
        let mut j = self.body_json();
        let mut host = Json::obj();
        host.push("wall_clock_ms", Json::Int(self.wall_clock_ms));
        host.push("threads", Json::Int(self.threads));
        let m = &self.image_memory;
        let mut im = Json::obj();
        im.push("executions", Json::Int(m.executions));
        im.push("images", Json::Int(m.images));
        if let Some(distinct) = m.distinct_states {
            im.push("distinct_states", Json::Int(distinct));
        }
        im.push("base_bytes", Json::Int(m.base_bytes));
        im.push("delta_bytes", Json::Int(m.delta_bytes));
        im.push("full_copy_bytes", Json::Int(m.full_copy_bytes));
        im.push("peak_live_bytes", Json::Int(m.peak_live_bytes));
        im.push(
            "bytes_per_crash_state",
            Json::Int(m.bytes_per_crash_state()),
        );
        im.push(
            "full_copy_bytes_per_state",
            Json::Int(m.full_copy_bytes_per_state()),
        );
        host.push("image_memory", im);
        j.push("host", host);
        j.pretty()
    }

    /// The replay-stable form: everything except the `host` section.
    /// Byte-identical across reruns of the same `(seed, budget,
    /// schedule)` triple, regardless of thread count.
    pub fn canonical_string(&self) -> String {
        self.body_json().pretty()
    }

    /// Parse a report produced by [`CampaignReport::to_string_pretty`]
    /// (a missing `host` section is tolerated).
    pub fn parse(text: &str) -> Result<CampaignReport, String> {
        let j = Json::parse(text)?;
        let schema = j
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing schema")?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema {schema:?} (want {SCHEMA:?})"));
        }
        let int = |key: &str| -> Result<u64, String> {
            j.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing {key}"))
        };
        let scenarios = j
            .get("scenarios")
            .and_then(Json::as_arr)
            .ok_or("missing scenarios")?
            .iter()
            .map(|e| {
                let s = |key: &str| -> Result<String, String> {
                    e.get(key)
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("scenario missing {key}"))
                };
                let n = |key: &str| -> Result<u64, String> {
                    e.get(key)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("scenario missing {key}"))
                };
                Ok(ScenarioReport {
                    name: s("name")?,
                    kernel: s("kernel")?,
                    mechanism: s("mechanism")?,
                    platform: s("platform")?,
                    total_units: n("total_units")?,
                    trials: n("trials")?,
                    outcomes: OutcomeCounts::from_json(
                        e.get("outcomes").ok_or("scenario missing outcomes")?,
                    )?,
                    lost_units_total: n("lost_units_total")?,
                    lost_units_max: n("lost_units_max")?,
                    sim_time_ps_total: n("sim_time_ps_total")?,
                    telemetry: e
                        .get("telemetry")
                        .map(telemetry_from_json)
                        .transpose()?
                        .into(),
                    natural_resilience: e
                        .get("natural_resilience")
                        .map(resilience_from_json)
                        .transpose()?
                        .into(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let host = j.get("host");
        let host_int = |key: &str| -> u64 {
            host.and_then(|h| h.get(key))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        let im = host.and_then(|h| h.get("image_memory"));
        let im_int = |key: &str| -> u64 {
            im.and_then(|m| m.get(key))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        Ok(CampaignReport {
            seed: int("seed")?,
            budget_states: int("budget_states")?,
            schedule: j
                .get("schedule")
                .and_then(Json::as_str)
                .ok_or("missing schedule")?
                .to_string(),
            dense_units: j.get("dense_units").and_then(Json::as_u64).unwrap_or(0),
            registry: match j.get("registry").and_then(Json::as_str) {
                None => Registry::Kernel,
                Some(name) => Registry::parse(name)?,
            },
            faults: match j.get("faults").and_then(Json::as_str) {
                None => FaultProfile::Off,
                Some(name) => FaultProfile::parse(name)?,
            },
            shard: j
                .get("shard")
                .and_then(Json::as_str)
                .map(parse_shard)
                .transpose()?,
            scenarios,
            totals: OutcomeCounts::from_json(j.get("totals").ok_or("missing totals")?)?,
            telemetry: j
                .get("telemetry")
                .map(|t| telemetry_from_json(t).map(Box::new))
                .transpose()?,
            diagnostics: j
                .get("diagnostics")
                .map(DiagnosticsBlock::from_json)
                .transpose()?,
            image_memory: ImageMemorySummary {
                executions: im_int("executions"),
                images: im_int("images"),
                distinct_states: im
                    .and_then(|m| m.get("distinct_states"))
                    .and_then(Json::as_u64),
                base_bytes: im_int("base_bytes"),
                delta_bytes: im_int("delta_bytes"),
                full_copy_bytes: im_int("full_copy_bytes"),
                peak_live_bytes: im_int("peak_live_bytes"),
            },
            wall_clock_ms: host_int("wall_clock_ms"),
            threads: host_int("threads"),
        })
    }
}

/// Audit a telemetry-carrying report: every registered mechanism is
/// flush-based (history flushing, checkpoint persists, undo logging,
/// selective/epoch flushing), so a scenario whose aggregate profile shows
/// *zero* flush instructions and zero epoch barriers means the
/// instrumentation came unthreaded — exactly the regression the CI smoke
/// campaign runs with `--telemetry` to catch. Returns one line per
/// offending scenario; scenarios without a telemetry block are skipped.
pub fn flush_audit(report: &CampaignReport) -> Vec<String> {
    report
        .scenarios
        .iter()
        .filter(|s| s.trials > 0)
        .filter_map(|s| {
            let t = s.telemetry.as_ref()?;
            (t.flush_total() == 0 && t.epoch_barriers == 0).then(|| {
                format!(
                    "{}: flush-based mechanism {:?} recorded zero flushes over {} trials",
                    s.name, s.mechanism, s.trials
                )
            })
        })
        .collect()
}

/// Result of diffing two reports.
#[derive(Debug)]
pub struct Comparison {
    /// Human-readable diff lines.
    pub lines: Vec<String>,
    /// True when the new report is strictly worse where it matters: new
    /// silent corruption, or previously-recovering scenarios now failing.
    pub regression: bool,
}

/// Diff `new` against `old`, scenario by scenario.
pub fn compare(old: &CampaignReport, new: &CampaignReport) -> Comparison {
    let mut lines = Vec::new();
    let mut regression = false;
    if old.seed != new.seed
        || old.budget_states != new.budget_states
        || old.schedule != new.schedule
    {
        lines.push(format!(
            "inputs differ: seed {} -> {}, budget {} -> {}, schedule {} -> {} \
             (different crash-point sets; outcome deltas are indicative only)",
            old.seed, new.seed, old.budget_states, new.budget_states, old.schedule, new.schedule
        ));
    }
    for s_new in &new.scenarios {
        match old.scenarios.iter().find(|s| s.name == s_new.name) {
            None => lines.push(format!(
                "+ {}: new scenario ({} trials)",
                s_new.name, s_new.trials
            )),
            Some(s_old) => {
                if s_old.outcomes == s_new.outcomes {
                    continue;
                }
                lines.push(format!(
                    "~ {}: exact {} -> {}, recomputed {} -> {}, detected {} -> {}, clean {} -> {}, SILENT {} -> {}",
                    s_new.name,
                    s_old.outcomes.recovered_exact,
                    s_new.outcomes.recovered_exact,
                    s_old.outcomes.recovered_recomputed,
                    s_new.outcomes.recovered_recomputed,
                    s_old.outcomes.detected_dirty,
                    s_new.outcomes.detected_dirty,
                    s_old.outcomes.completed_clean,
                    s_new.outcomes.completed_clean,
                    s_old.outcomes.silent_corruption,
                    s_new.outcomes.silent_corruption,
                ));
                if s_new.outcomes.silent_corruption > s_old.outcomes.silent_corruption {
                    regression = true;
                }
            }
        }
    }
    for s_old in &old.scenarios {
        if !new.scenarios.iter().any(|s| s.name == s_old.name) {
            lines.push(format!("- {}: scenario dropped", s_old.name));
            regression = true;
        }
    }
    if new.silent_corruption_total() > old.silent_corruption_total() {
        regression = true;
    }
    if lines.is_empty() {
        lines.push("no outcome changes".to_string());
    }
    Comparison { lines, regression }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::Outcome;

    fn sample() -> CampaignReport {
        let mut outcomes = OutcomeCounts::default();
        outcomes.add(Outcome::RecoveredRecomputed);
        outcomes.add(Outcome::RecoveredExact);
        CampaignReport {
            seed: 42,
            budget_states: 10,
            schedule: "stratified".into(),
            dense_units: 0,
            registry: Registry::Kernel,
            faults: FaultProfile::Off,
            shard: None,
            scenarios: vec![ScenarioReport {
                name: "cg-extended".into(),
                kernel: "cg".into(),
                mechanism: "extended".into(),
                platform: "nvm-only".into(),
                total_units: 48,
                trials: 2,
                outcomes,
                lost_units_total: 3,
                lost_units_max: 2,
                sim_time_ps_total: 123_456,
                telemetry: None.into(),
                natural_resilience: None.into(),
            }],
            totals: outcomes,
            telemetry: None,
            diagnostics: None,
            image_memory: ImageMemorySummary {
                executions: 2,
                images: 2,
                distinct_states: Some(1),
                base_bytes: 1 << 20,
                delta_bytes: 4096,
                full_copy_bytes: 2 << 20,
                peak_live_bytes: (1 << 20) + 4096,
            },
            wall_clock_ms: 99,
            threads: 8,
        }
    }

    fn sample_with_telemetry() -> CampaignReport {
        let mut r = sample();
        let profile = ExecutionProfile {
            clflushes: 24,
            sfences: 26,
            nvm_line_writes: 40,
            flush_ps: 480_000,
            fence_ps: 2_600_000,
            sim_time_ps: 9_000_000,
            dirty_lines_at_crash: 5,
            ..Default::default()
        };
        r.scenarios[0].telemetry = Some(profile).into();
        r.telemetry = Some(Box::new(profile));
        r
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let r = sample();
        let parsed = CampaignReport::parse(&r.to_string_pretty()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn canonical_form_drops_host_facts_only() {
        let mut a = sample();
        let mut b = sample();
        b.wall_clock_ms = 1;
        b.threads = 1;
        assert_eq!(a.canonical_string(), b.canonical_string());
        a.seed = 7;
        assert_ne!(a.canonical_string(), b.canonical_string());
    }

    #[test]
    fn compare_flags_silent_corruption_as_regression() {
        let old = sample();
        let mut new = sample();
        assert!(!compare(&old, &new).regression);
        new.scenarios[0].outcomes.silent_corruption = 1;
        new.totals.silent_corruption = 1;
        let cmp = compare(&old, &new);
        assert!(cmp.regression);
        assert!(cmp.lines.iter().any(|l| l.contains("SILENT 0 -> 1")));
    }

    #[test]
    fn compare_flags_dropped_scenarios() {
        let old = sample();
        let mut new = sample();
        new.scenarios.clear();
        assert!(compare(&old, &new).regression);
    }

    #[test]
    fn parse_rejects_other_schemas() {
        assert!(CampaignReport::parse(r#"{"schema": "bogus/v9"}"#).is_err());
        assert!(CampaignReport::parse(r#"{"schema": "adcc-campaign-report/v8"}"#).is_err());
    }

    #[test]
    fn natural_resilience_block_roundtrips_and_is_canonical() {
        use adcc_resilience::DirtyTrial;
        let plain = sample();
        assert!(!plain.canonical_string().contains("natural_resilience"));
        let mut r = sample();
        let tol = Tolerance::new(1e-9, 1e-3, 1e3);
        r.scenarios[0].natural_resilience = Some(NaturalResilience::from_trials(
            tol,
            &[
                DirtyTrial {
                    unit: 0,
                    class: DirtyClass::ConvergedExact,
                    extra_units: 3,
                    sim_time_ps: 1_000,
                },
                DirtyTrial {
                    unit: 5,
                    class: DirtyClass::ConvergedWrong,
                    extra_units: 9,
                    sim_time_ps: 500,
                },
            ],
        ))
        .into();
        let text = r.to_string_pretty();
        assert!(text.contains("\"natural_resilience\""));
        assert!(text.contains("\"converged-wrong\": 1"));
        assert!(text.contains("\"rate_ppm\""));
        assert_ne!(plain.canonical_string(), r.canonical_string());
        let parsed = CampaignReport::parse(&text).unwrap();
        assert_eq!(parsed, r);
        // Derived fields are recomputed, so re-emission is byte-identical.
        assert_eq!(parsed.to_string_pretty(), text);
    }

    #[test]
    fn natural_resilience_with_nothing_converged_emits_null_mean() {
        use adcc_resilience::DirtyTrial;
        let mut r = sample();
        r.scenarios[0].natural_resilience = Some(NaturalResilience::from_trials(
            Tolerance::exact_only(0.0),
            &[DirtyTrial {
                unit: 2,
                class: DirtyClass::Diverged,
                extra_units: 0,
                sim_time_ps: 10,
            }],
        ))
        .into();
        let text = r.to_string_pretty();
        assert!(text.contains("\"mean_extra_units_milli\": null"));
        let parsed = CampaignReport::parse(&text).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(parsed.to_string_pretty(), text);
    }

    #[test]
    fn parse_rejects_unordered_tolerance_ladders() {
        let mut r = sample();
        r.scenarios[0].natural_resilience =
            Some(NaturalResilience::new(Tolerance::new(1e-9, 1e-3, 1e3))).into();
        let text = r
            .to_string_pretty()
            .replace("\"acceptable\": 0.001", "\"acceptable\": 1000000.0");
        let err = CampaignReport::parse(&text).unwrap_err();
        assert!(err.contains("out of order"), "{err}");
    }

    #[test]
    fn diagnostics_block_roundtrips_and_is_canonical() {
        let plain = sample();
        assert!(!plain.canonical_string().contains("diagnostics"));
        let mut r = sample();
        r.diagnostics = Some(DiagnosticsBlock {
            analyzed: vec!["ds-queue-undo".into(), "ds-queue-base".into()],
            findings: vec![DiagnosticRecord {
                scenario: "ds-queue-undo".into(),
                category: "ordering-race".into(),
                region: "ds/undo-state".into(),
                line: 129,
                first_event: 4,
                last_event: 11,
                epoch: 2,
            }],
        });
        let text = r.to_string_pretty();
        assert!(text.contains("\"diagnostics\""));
        assert!(text.contains("\"ordering-race\""));
        assert_ne!(plain.canonical_string(), r.canonical_string());
        let parsed = CampaignReport::parse(&text).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(parsed.to_string_pretty(), text);
        // Analyzed-and-clean still emits the block (empty findings), so
        // CI can tell it apart from a campaign that never analyzed.
        let mut clean = sample();
        clean.diagnostics = Some(DiagnosticsBlock::default());
        let parsed = CampaignReport::parse(&clean.to_string_pretty()).unwrap();
        assert_eq!(parsed.diagnostics, Some(DiagnosticsBlock::default()));
    }

    #[test]
    fn faults_header_roundtrips_and_is_canonical() {
        let off = sample();
        assert!(!off.canonical_string().contains("faults"));
        for (faults, header) in [
            (FaultProfile::Lossy, "lossy"),
            (FaultProfile::Chaotic, "chaotic"),
        ] {
            let mut r = sample();
            r.registry = Registry::Dist;
            r.faults = faults;
            assert!(
                r.canonical_string()
                    .contains(&format!("\"faults\": \"{header}\"")),
                "{header}"
            );
            assert_ne!(off.canonical_string(), r.canonical_string());
            let parsed = CampaignReport::parse(&r.to_string_pretty()).unwrap();
            assert_eq!(parsed, r);
        }
    }

    #[test]
    fn parse_rejects_unknown_fault_profiles() {
        let mut text = sample().to_string_pretty();
        text = text.replace(
            "\"schedule\": \"stratified\"",
            "\"schedule\": \"stratified\",\n  \"faults\": \"bogus\"",
        );
        let err = CampaignReport::parse(&text).unwrap_err();
        assert!(err.contains("unknown fault profile"), "{err}");
    }

    #[test]
    fn fault_telemetry_keys_roundtrip() {
        let mut r = sample_with_telemetry();
        let profile = ExecutionProfile {
            net_dropped: 9,
            net_duplicated: 3,
            net_reordered: 5,
            net_retries: 9,
            remote_restore_bytes: 2_048,
            ..*r.scenarios[0].telemetry.unwrap()
        };
        r.scenarios[0].telemetry = Some(profile).into();
        r.telemetry = Some(Box::new(profile));
        let text = r.to_string_pretty();
        assert!(text.contains("\"net_dropped\": 9"));
        assert!(text.contains("\"remote_restore_bytes\": 2048"));
        let parsed = CampaignReport::parse(&text).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn merge_rejects_mixed_fault_profiles() {
        let mut a = sample();
        let mut b = sample();
        a.shard = Some((0, 2));
        b.shard = Some((1, 2));
        b.faults = FaultProfile::Chaotic;
        let err = CampaignReport::merge_shards(&[a, b]).unwrap_err();
        assert!(err.contains("different campaign"), "{err}");
    }

    #[test]
    fn registry_header_roundtrips_and_is_canonical() {
        let kernel = sample();
        assert!(!kernel.canonical_string().contains("registry"));
        for (registry, header) in [(Registry::Dist, "dist"), (Registry::Ds, "ds")] {
            let mut r = sample();
            r.registry = registry;
            assert!(
                r.canonical_string()
                    .contains(&format!("\"registry\": \"{header}\"")),
                "{header}"
            );
            assert_ne!(kernel.canonical_string(), r.canonical_string());
            let parsed = CampaignReport::parse(&r.to_string_pretty()).unwrap();
            assert_eq!(parsed, r);
        }
    }

    #[test]
    fn parse_rejects_unknown_registry_names() {
        let mut text = sample().to_string_pretty();
        text = text.replace(
            "\"schedule\": \"stratified\"",
            "\"schedule\": \"stratified\",\n  \"registry\": \"bogus\"",
        );
        let err = CampaignReport::parse(&text).unwrap_err();
        assert!(err.contains("unknown registry"), "{err}");
    }

    #[test]
    fn fabric_telemetry_keys_roundtrip() {
        let mut r = sample_with_telemetry();
        let profile = ExecutionProfile {
            net_msgs: 7,
            net_bytes: 1_024,
            net_ps: 99_000,
            recovery_net_bytes: 512,
            ..*r.scenarios[0].telemetry.unwrap()
        };
        r.scenarios[0].telemetry = Some(profile).into();
        r.telemetry = Some(Box::new(profile));
        let text = r.to_string_pretty();
        assert!(text.contains("\"recovery_net_bytes\": 512"));
        let parsed = CampaignReport::parse(&text).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn ds_telemetry_keys_roundtrip() {
        let mut r = sample_with_telemetry();
        let profile = ExecutionProfile {
            log_meta_appends: 12,
            log_meta_bytes: 384,
            ds_ops_applied: 96,
            ds_ops_replayed: 64,
            ..*r.scenarios[0].telemetry.unwrap()
        };
        r.scenarios[0].telemetry = Some(profile).into();
        r.telemetry = Some(Box::new(profile));
        let text = r.to_string_pretty();
        assert!(text.contains("\"ds_ops_replayed\": 64"));
        assert!(text.contains("\"log_meta_bytes\": 384"));
        let parsed = CampaignReport::parse(&text).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn telemetry_block_roundtrips_and_derived_fields_are_emitted() {
        let r = sample_with_telemetry();
        let text = r.to_string_pretty();
        assert!(text.contains("\"adr_cost_ps\""));
        assert!(text.contains("\"eadr_cost_ps\""));
        assert!(text.contains("\"consistency_window_ps\""));
        assert!(text.contains("\"dirty_data_rate_ppm\""));
        let parsed = CampaignReport::parse(&text).unwrap();
        assert_eq!(parsed, r);
        // Derived fields are recomputed, so re-emission is byte-identical.
        assert_eq!(parsed.to_string_pretty(), text);
    }

    /// Counter *i* of `adcc_telemetry::profile`'s table holds *i* + 1: all
    /// 29 are emitted ahead of the four derived keys, first and last where
    /// every report on disk has them, and parse back into the same profile.
    #[test]
    fn every_profile_counter_is_emitted_and_parsed_back() {
        let mut next = 0;
        let profile = ExecutionProfile::from_counters(|_| {
            next += 1;
            Ok::<u64, ()>(next)
        })
        .unwrap();
        let emitted = telemetry_json(&profile);
        let Json::Obj(fields) = &emitted else {
            panic!("telemetry is an object");
        };
        let counters: Vec<(&str, u64)> = fields[..fields.len() - 4]
            .iter()
            .map(|(key, value)| (key.as_str(), value.as_u64().unwrap()))
            .collect();
        assert_eq!(counters, profile.counters().collect::<Vec<_>>());
        assert_eq!(counters.len(), 29);
        assert_eq!(counters[0], ("clflushes", 1));
        assert_eq!(counters[28], ("remote_restore_bytes", 29));
        assert_eq!(telemetry_from_json(&emitted), Ok(profile));
    }

    #[test]
    fn shard_marker_roundtrips_and_merge_restores_the_canonical_form() {
        let full = sample();
        let mut a = sample();
        let mut b = sample();
        a.shard = Some((0, 2));
        b.shard = Some((1, 2));
        assert!(a.canonical_string().contains("\"shard\": \"0/2\""));
        assert!(!full.canonical_string().contains("shard"));
        let parsed = CampaignReport::parse(&a.to_string_pretty()).unwrap();
        assert_eq!(parsed, a);
        // Split the sample's single scenario's aggregates across the two
        // shards; the merge must re-total them and drop the marker.
        a.scenarios[0].trials = 1;
        a.scenarios[0].lost_units_total = 1;
        a.scenarios[0].sim_time_ps_total = 23_456;
        a.totals = OutcomeCounts::default();
        a.totals.add(Outcome::RecoveredRecomputed);
        a.scenarios[0].outcomes = a.totals;
        b.scenarios[0].trials = 1;
        b.scenarios[0].lost_units_total = 2;
        b.scenarios[0].sim_time_ps_total = 100_000;
        b.totals = OutcomeCounts::default();
        b.totals.add(Outcome::RecoveredExact);
        b.scenarios[0].outcomes = b.totals;
        let merged = CampaignReport::merge_shards(&[b.clone(), a.clone()]).unwrap();
        assert_eq!(merged.canonical_string(), full.canonical_string());
    }

    #[test]
    fn merge_rejects_bad_shard_sets() {
        let mut a = sample();
        let mut b = sample();
        a.shard = Some((0, 2));
        b.shard = Some((1, 2));
        // Unsharded input.
        let err = CampaignReport::merge_shards(&[sample()]).unwrap_err();
        assert!(err.contains("not a shard"));
        // Overlap.
        let err = CampaignReport::merge_shards(&[a.clone(), a.clone()]).unwrap_err();
        assert!(err.contains("overlapping"), "{err}");
        // Gap.
        let err = CampaignReport::merge_shards(&[a.clone()]).unwrap_err();
        assert!(err.contains("missing"), "{err}");
        // Different campaign.
        b.seed = 7;
        let err = CampaignReport::merge_shards(&[a.clone(), b.clone()]).unwrap_err();
        assert!(err.contains("different campaign"), "{err}");
        // Mixed shard counts.
        b.seed = a.seed;
        b.shard = Some((1, 3));
        let err = CampaignReport::merge_shards(&[a, b]).unwrap_err();
        assert!(err.contains("mixed shard counts"), "{err}");
    }

    #[test]
    fn parse_shard_accepts_only_i_slash_n() {
        assert_eq!(parse_shard("0/2").unwrap(), (0, 2));
        assert_eq!(parse_shard("7/8").unwrap(), (7, 8));
        for bad in ["2/2", "3/2", "0/0", "x/2", "1", "1/2/3", "-1/2"] {
            assert!(parse_shard(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn flush_audit_flags_zero_flush_scenarios_only() {
        let with = sample_with_telemetry();
        assert!(flush_audit(&with).is_empty());
        // Telemetry absent: nothing to audit.
        assert!(flush_audit(&sample()).is_empty());
        // Zero flushes with telemetry on: flagged.
        let mut zero = sample_with_telemetry();
        zero.scenarios[0].telemetry = Some(ExecutionProfile::default()).into();
        let lines = flush_audit(&zero);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("cg-extended"));
    }
}
