//! The uniform request/response layer over the core pipelines.
//!
//! Every pipeline the crate exposes — the EDS lower bound, the
//! Theorem 3.2 homogeneous construction, homogeneous lifts, the OI → PO
//! simulation, the Ramsey ID → OI step, the full transfer, and the view
//! census — is addressable here by a stable string name and a flat JSON
//! parameter object, and returns its report as a JSON value. This is the
//! single dispatch surface shared by the `locap` CLI and the `locapd`
//! daemon (crate `locap-serve`): both parse a `(pipeline, params)` pair
//! into a [`PipelineRequest`], attach a [`RunBudget`], and call
//! [`PipelineRequest::run`].
//!
//! Parse-time failures ([`RequestError`]) are the *caller's* fault and
//! carry a machine-readable kind; run-time failures are the usual typed
//! [`CoreError`]. Neither path panics: parameters that would trip a
//! generator precondition (for example a cycle shorter than 3) are
//! rejected during parsing.

use std::collections::BTreeSet;

use locap_graph::budget::RunBudget;
use locap_graph::canon::{IdNbhd, OrderedNbhd};
use locap_graph::{gen, product, Graph, LDigraph};
use locap_lifts::ViewCache;
use locap_models::{run, IdVertexAlgorithm, OiVertexAlgorithm};
use locap_num::Ratio;
use locap_obs::json::Json;
use locap_problems::{approx_ratio, independent_set, vertex_cover, Goal, MAX_EXACT_NODES};
use locap_store::{StoreHandle, StoreKey};

use crate::transfer::require_complete;
use crate::{eds_lower, hom_lift, homogeneous, oi_to_po, ramsey, transfer, CoreError};

/// Store namespace holding whole-request result documents.
pub const PIPELINE_STORE_NS: &str = "pipeline";

/// Every pipeline name this layer dispatches, in CLI/daemon order.
pub const PIPELINES: [&str; 7] =
    ["eds-lower", "homogeneous", "hom-lift", "oi-to-po", "ramsey", "transfer", "census"];

/// Hard ceiling on any size-like request parameter (node counts, moduli,
/// identifier universes). Budgets bound *time*; this bounds the
/// *allocation* a single request can demand before any work starts.
pub const MAX_PARAM: u64 = 1 << 20;

/// A parse-time rejection of a `(pipeline, params)` pair. These are
/// caller errors: the request never reached a pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The pipeline name is not one of [`PIPELINES`].
    UnknownPipeline {
        /// The name the caller sent.
        name: String,
    },
    /// A required parameter is absent.
    MissingParam {
        /// The pipeline being parsed.
        pipeline: &'static str,
        /// The absent parameter.
        param: &'static str,
    },
    /// A parameter is present but unusable (wrong type, out of range,
    /// unknown enumeration value).
    BadParam {
        /// The pipeline being parsed.
        pipeline: &'static str,
        /// The offending parameter.
        param: &'static str,
        /// What was wrong with it.
        reason: String,
    },
}

impl RequestError {
    /// Stable machine-readable tag, used as the error kind in daemon
    /// responses (`request/<kind>`).
    pub fn kind(&self) -> &'static str {
        match self {
            RequestError::UnknownPipeline { .. } => "unknown_pipeline",
            RequestError::MissingParam { .. } => "missing_param",
            RequestError::BadParam { .. } => "bad_param",
        }
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::UnknownPipeline { name } => {
                write!(f, "unknown pipeline {name:?}; expected one of {PIPELINES:?}")
            }
            RequestError::MissingParam { pipeline, param } => {
                write!(f, "pipeline {pipeline:?} requires parameter {param:?}")
            }
            RequestError::BadParam { pipeline, param, reason } => {
                write!(f, "pipeline {pipeline:?} parameter {param:?}: {reason}")
            }
        }
    }
}

impl std::error::Error for RequestError {}

/// OI vertex algorithms addressable by name in requests (the e09 pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OiAlgo {
    /// Vertex cover: join unless the centre is its ball's order-minimum.
    VcNonMin,
    /// Independent set: join iff the centre is its ball's order-minimum.
    IsLocalMin,
}

impl OiAlgo {
    /// Request names, aligned with the variants.
    pub const NAMES: [&'static str; 2] = ["vc-non-min", "is-local-min"];

    /// Parses a request name.
    pub fn parse(name: &str) -> Option<OiAlgo> {
        match name {
            "vc-non-min" => Some(OiAlgo::VcNonMin),
            "is-local-min" => Some(OiAlgo::IsLocalMin),
            _ => None,
        }
    }

    /// The request name of this algorithm.
    pub fn name(self) -> &'static str {
        match self {
            OiAlgo::VcNonMin => "vc-non-min",
            OiAlgo::IsLocalMin => "is-local-min",
        }
    }

    /// The optimisation goal of the underlying problem.
    pub fn goal(self) -> Goal {
        match self {
            OiAlgo::VcNonMin => Goal::Minimize,
            OiAlgo::IsLocalMin => Goal::Maximize,
        }
    }

    fn feasible(self, g: &Graph, x: &BTreeSet<usize>) -> bool {
        match self {
            OiAlgo::VcNonMin => vertex_cover::feasible(g, x),
            OiAlgo::IsLocalMin => independent_set::feasible(g, x),
        }
    }

    fn opt_value(self, g: &Graph) -> usize {
        match self {
            OiAlgo::VcNonMin => vertex_cover::opt_value(g),
            OiAlgo::IsLocalMin => independent_set::opt_value(g),
        }
    }
}

impl OiVertexAlgorithm for OiAlgo {
    fn radius(&self) -> usize {
        1
    }

    fn evaluate(&self, t: &OrderedNbhd) -> bool {
        match self {
            OiAlgo::VcNonMin => t.root != 0,
            OiAlgo::IsLocalMin => t.root == 0,
        }
    }
}

/// ID vertex algorithms addressable by name in requests (the e10 trio).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdAlgo {
    /// Join iff the centre holds the ball's maximum identifier
    /// (order-invariant by construction).
    LocalMax,
    /// Join iff the centre's identifier is even (value-sensitive).
    EvenId,
    /// Join iff the sum of ball identifiers is divisible by 3
    /// (value-sensitive).
    SumMod3,
}

impl IdAlgo {
    /// Request names, aligned with the variants.
    pub const NAMES: [&'static str; 3] = ["local-max", "even-id", "sum-mod3"];

    /// Parses a request name.
    pub fn parse(name: &str) -> Option<IdAlgo> {
        match name {
            "local-max" => Some(IdAlgo::LocalMax),
            "even-id" => Some(IdAlgo::EvenId),
            "sum-mod3" => Some(IdAlgo::SumMod3),
            _ => None,
        }
    }

    /// The request name of this algorithm.
    pub fn name(self) -> &'static str {
        match self {
            IdAlgo::LocalMax => "local-max",
            IdAlgo::EvenId => "even-id",
            IdAlgo::SumMod3 => "sum-mod3",
        }
    }
}

impl IdVertexAlgorithm for IdAlgo {
    fn radius(&self) -> usize {
        1
    }

    fn evaluate(&self, t: &IdNbhd) -> bool {
        match self {
            IdAlgo::LocalMax => t.root as usize + 1 == t.ids.len(),
            IdAlgo::EvenId => t.ids.get(t.root as usize).is_some_and(|id| id % 2 == 0),
            IdAlgo::SumMod3 => t.ids.iter().sum::<u64>() % 3 == 0,
        }
    }
}

/// The graph family a `census` request walks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CensusFamily {
    /// `gen::directed_cycle(n)`.
    DirectedCycle {
        /// Cycle length (≥ 3).
        n: usize,
    },
    /// `product::toroidal(k, m)` — the k-dimensional discrete torus.
    Toroidal {
        /// Dimension (≥ 1).
        k: usize,
        /// Side length (≥ 3).
        m: usize,
    },
}

impl CensusFamily {
    fn build(self) -> LDigraph {
        match self {
            CensusFamily::DirectedCycle { n } => gen::directed_cycle(n),
            CensusFamily::Toroidal { k, m } => product::toroidal(k, m),
        }
    }

    fn describe(self) -> String {
        match self {
            CensusFamily::DirectedCycle { n } => format!("directed-cycle({n})"),
            CensusFamily::Toroidal { k, m } => format!("toroidal({k},{m})"),
        }
    }
}

/// A fully parsed pipeline invocation: one variant per [`PIPELINES`]
/// entry, carrying validated parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineRequest {
    /// Theorem 1.6 lower-bound certificate on the `Δ′, n` EDS instance.
    EdsLower {
        /// The degree `Δ′ = 2k`.
        delta_prime: usize,
        /// Instance size (at most [`MAX_EXACT_NODES`]: OPT is solved
        /// exactly).
        n: usize,
    },
    /// Theorem 3.2 homogeneous graph construction.
    Homogeneous {
        /// Number of labels.
        k: usize,
        /// Target radius.
        r: usize,
        /// Modulus (even).
        m: u64,
    },
    /// Theorem 3.3 homogeneous lift of a directed cycle.
    HomLift {
        /// Base cycle length (≥ 3).
        cycle: usize,
        /// Modulus for the homogeneous graph `H`.
        m: u64,
    },
    /// Theorem 4.1: run the simulated PO algorithm `B` on a cycle.
    OiToPo {
        /// The OI algorithm `A` being simulated.
        algo: OiAlgo,
        /// Cycle length (3 ..= [`MAX_EXACT_NODES`]).
        cycle: usize,
        /// Modulus for the homogeneous graph fixing `<*`.
        m: u64,
    },
    /// §4.2 Ramsey ID → OI transfer on an identifier universe.
    Ramsey {
        /// The ID algorithm to transfer.
        algo: IdAlgo,
        /// Identifier universe `{1..=universe}`.
        universe: u64,
        /// Radius.
        r: usize,
        /// Requested monochromatic set size.
        m: usize,
    },
    /// The full OI → PO transfer with approximation accounting.
    Transfer {
        /// The OI algorithm `A`.
        algo: OiAlgo,
        /// Base cycle length (3 ..= [`MAX_EXACT_NODES`]).
        cycle: usize,
        /// Modulus for the homogeneous graph `H`.
        m: u64,
    },
    /// Exact view census of a graph family up to a radius.
    Census {
        /// The graph family.
        family: CensusFamily,
        /// Maximum census radius (≥ 1).
        radius: usize,
    },
}

fn int_param(
    pipeline: &'static str,
    params: &Json,
    param: &'static str,
    default: Option<u64>,
) -> Result<u64, RequestError> {
    let Some(v) = params.get(param) else {
        return default.ok_or(RequestError::MissingParam { pipeline, param });
    };
    let n = v.as_u64().ok_or_else(|| RequestError::BadParam {
        pipeline,
        param,
        reason: format!("expected a non-negative integer, got {v}"),
    })?;
    if n > MAX_PARAM {
        return Err(RequestError::BadParam {
            pipeline,
            param,
            reason: format!("{n} exceeds the maximum {MAX_PARAM}"),
        });
    }
    Ok(n)
}

fn int_min(
    pipeline: &'static str,
    params: &Json,
    param: &'static str,
    default: Option<u64>,
    min: u64,
) -> Result<u64, RequestError> {
    let n = int_param(pipeline, params, param, default)?;
    if n < min {
        return Err(RequestError::BadParam {
            pipeline,
            param,
            reason: format!("must be at least {min}, got {n}"),
        });
    }
    Ok(n)
}

/// [`int_min`] (at least 3) for the node count of a graph whose optimum
/// the exact solvers compute: at most [`MAX_EXACT_NODES`].
fn exact_size(
    pipeline: &'static str,
    params: &Json,
    param: &'static str,
) -> Result<usize, RequestError> {
    let n = int_min(pipeline, params, param, None, 3)?;
    if n > MAX_EXACT_NODES as u64 {
        return Err(RequestError::BadParam {
            pipeline,
            param,
            reason: format!("{n} exceeds the exact solvers' limit of {MAX_EXACT_NODES} nodes"),
        });
    }
    Ok(n as usize)
}

/// The most view-refinement states a census may hold per radius, one
/// walk level (`n · 2|L|` states) plus the `n` roots: the
/// `3 · MAX_PARAM` states of the longest directed cycle parse admits.
const MAX_CENSUS_STATES: u64 = 3 * MAX_PARAM;

/// The `k`-dimensional torus over `Z_m`, provided its refinement state
/// count per radius `m^k · (1 + 2k)` is at most [`MAX_CENSUS_STATES`]:
/// `k` and `m` are each bounded by [`MAX_PARAM`], but `m^k` is not.
fn toroidal_family(pipeline: &'static str, k: u64, m: u64) -> Result<CensusFamily, RequestError> {
    u32::try_from(k)
        .ok()
        .and_then(|e| m.checked_pow(e))
        .and_then(|nodes| nodes.checked_mul(1 + 2 * k))
        .filter(|&states| states <= MAX_CENSUS_STATES)
        .map(|_| CensusFamily::Toroidal { k: k as usize, m: m as usize })
        .ok_or_else(|| RequestError::BadParam {
            pipeline,
            param: "k",
            reason: format!(
                "toroidal k = {k}, m = {m} needs m^k * (1 + 2k) census states, \
                 above the limit of {MAX_CENSUS_STATES}"
            ),
        })
}

fn str_param<'a>(
    pipeline: &'static str,
    params: &'a Json,
    param: &'static str,
) -> Result<&'a str, RequestError> {
    params
        .get(param)
        .ok_or(RequestError::MissingParam { pipeline, param })?
        .as_str()
        .ok_or_else(|| RequestError::BadParam {
            pipeline,
            param,
            reason: "expected a string".into(),
        })
}

fn oi_algo_param(pipeline: &'static str, params: &Json) -> Result<OiAlgo, RequestError> {
    let name = str_param(pipeline, params, "algo")?;
    OiAlgo::parse(name).ok_or_else(|| RequestError::BadParam {
        pipeline,
        param: "algo",
        reason: format!("unknown OI algorithm {name:?}; expected one of {:?}", OiAlgo::NAMES),
    })
}

fn id_algo_param(pipeline: &'static str, params: &Json) -> Result<IdAlgo, RequestError> {
    let name = str_param(pipeline, params, "algo")?;
    IdAlgo::parse(name).ok_or_else(|| RequestError::BadParam {
        pipeline,
        param: "algo",
        reason: format!("unknown ID algorithm {name:?}; expected one of {:?}", IdAlgo::NAMES),
    })
}

impl PipelineRequest {
    /// Parses a `(pipeline, params)` pair. `params` must be a JSON
    /// object (an empty one stands for "no parameters").
    ///
    /// # Errors
    ///
    /// [`RequestError`] describing the first unusable field; parameters
    /// are checked against generator preconditions here so that
    /// [`PipelineRequest::run`] cannot panic on caller input.
    pub fn parse(pipeline: &str, params: &Json) -> Result<PipelineRequest, RequestError> {
        let canonical = PIPELINES
            .iter()
            .find(|p| **p == pipeline)
            .copied()
            .ok_or_else(|| RequestError::UnknownPipeline { name: pipeline.into() })?;
        if !matches!(params, Json::Obj(_)) {
            return Err(RequestError::BadParam {
                pipeline: canonical,
                param: "params",
                reason: "parameters must be a JSON object".into(),
            });
        }
        let p = canonical;
        match p {
            "eds-lower" => Ok(PipelineRequest::EdsLower {
                delta_prime: int_min(p, params, "delta_prime", Some(2), 2)? as usize,
                n: exact_size(p, params, "n")?,
            }),
            "homogeneous" => Ok(PipelineRequest::Homogeneous {
                k: int_min(p, params, "k", Some(1), 1)? as usize,
                r: int_min(p, params, "r", Some(1), 1)? as usize,
                m: int_min(p, params, "m", None, 2)?,
            }),
            "hom-lift" => Ok(PipelineRequest::HomLift {
                cycle: int_min(p, params, "cycle", None, 3)? as usize,
                m: int_min(p, params, "m", None, 2)?,
            }),
            "oi-to-po" => Ok(PipelineRequest::OiToPo {
                algo: oi_algo_param(p, params)?,
                cycle: exact_size(p, params, "cycle")?,
                m: int_min(p, params, "m", Some(6), 2)?,
            }),
            "ramsey" => Ok(PipelineRequest::Ramsey {
                algo: id_algo_param(p, params)?,
                universe: int_min(p, params, "universe", Some(20), 3)?,
                r: int_min(p, params, "r", Some(1), 1)? as usize,
                m: int_min(p, params, "m", None, 3)? as usize,
            }),
            "transfer" => Ok(PipelineRequest::Transfer {
                algo: oi_algo_param(p, params)?,
                cycle: exact_size(p, params, "cycle")?,
                m: int_min(p, params, "m", Some(6), 2)?,
            }),
            "census" => {
                let family = match str_param(p, params, "family")? {
                    "directed-cycle" => CensusFamily::DirectedCycle {
                        n: int_min(p, params, "n", None, 3)? as usize,
                    },
                    "toroidal" => toroidal_family(
                        p,
                        int_min(p, params, "k", Some(1), 1)?,
                        int_min(p, params, "m", None, 3)?,
                    )?,
                    other => {
                        return Err(RequestError::BadParam {
                            pipeline: p,
                            param: "family",
                            reason: format!(
                            "unknown family {other:?}; expected \"directed-cycle\" or \"toroidal\""
                        ),
                        })
                    }
                };
                Ok(PipelineRequest::Census {
                    family,
                    radius: int_min(p, params, "radius", Some(2), 1)? as usize,
                })
            }
            _ => Err(RequestError::UnknownPipeline { name: pipeline.into() }),
        }
    }

    /// The canonical pipeline name of this request.
    pub fn pipeline(&self) -> &'static str {
        match self {
            PipelineRequest::EdsLower { .. } => "eds-lower",
            PipelineRequest::Homogeneous { .. } => "homogeneous",
            PipelineRequest::HomLift { .. } => "hom-lift",
            PipelineRequest::OiToPo { .. } => "oi-to-po",
            PipelineRequest::Ramsey { .. } => "ramsey",
            PipelineRequest::Transfer { .. } => "transfer",
            PipelineRequest::Census { .. } => "census",
        }
    }

    /// The request's parameters as a JSON object (round-trips through
    /// [`PipelineRequest::parse`]); recorded in provenance sidecars.
    pub fn params_json(&self) -> Json {
        let mut f: Vec<(String, Json)> = Vec::new();
        let mut put = |k: &str, v: Json| f.push((k.to_string(), v));
        match self {
            PipelineRequest::EdsLower { delta_prime, n } => {
                put("delta_prime", Json::Num(*delta_prime as f64));
                put("n", Json::Num(*n as f64));
            }
            PipelineRequest::Homogeneous { k, r, m } => {
                put("k", Json::Num(*k as f64));
                put("r", Json::Num(*r as f64));
                put("m", Json::Num(*m as f64));
            }
            PipelineRequest::HomLift { cycle, m } => {
                put("cycle", Json::Num(*cycle as f64));
                put("m", Json::Num(*m as f64));
            }
            PipelineRequest::OiToPo { algo, cycle, m } => {
                put("algo", Json::Str(algo.name().into()));
                put("cycle", Json::Num(*cycle as f64));
                put("m", Json::Num(*m as f64));
            }
            PipelineRequest::Ramsey { algo, universe, r, m } => {
                put("algo", Json::Str(algo.name().into()));
                put("universe", Json::Num(*universe as f64));
                put("r", Json::Num(*r as f64));
                put("m", Json::Num(*m as f64));
            }
            PipelineRequest::Transfer { algo, cycle, m } => {
                put("algo", Json::Str(algo.name().into()));
                put("cycle", Json::Num(*cycle as f64));
                put("m", Json::Num(*m as f64));
            }
            PipelineRequest::Census { family, radius } => {
                match family {
                    CensusFamily::DirectedCycle { n } => {
                        put("family", Json::Str("directed-cycle".into()));
                        put("n", Json::Num(*n as f64));
                    }
                    CensusFamily::Toroidal { k, m } => {
                        put("family", Json::Str("toroidal".into()));
                        put("k", Json::Num(*k as f64));
                        put("m", Json::Num(*m as f64));
                    }
                }
                put("radius", Json::Num(*radius as f64));
            }
        }
        Json::Obj(f)
    }

    /// Runs the pipeline under `budget` and returns its report as a JSON
    /// object.
    ///
    /// # Errors
    ///
    /// The pipeline's own [`CoreError`]s; an already-tripped budget
    /// (expired deadline, cancelled token) is reported as
    /// [`CoreError::Truncated`] before any work starts, so every
    /// pipeline truncates deterministically under a zero deadline.
    pub fn run(&self, budget: &RunBudget) -> Result<Json, CoreError> {
        self.run_with_store(budget, None)
    }

    /// [`PipelineRequest::run`] with an optional persistent result store.
    ///
    /// With a store, the request's result document is looked up under its
    /// content key first — a warm hit skips the computation entirely —
    /// and persisted on a successful cold run. The census pipeline
    /// additionally consults the store per radius (so overlapping census
    /// requests share sub-censuses). Store damage degrades to a
    /// recompute and store write failures are counted but never turn a
    /// successful run into an error.
    pub fn run_with_store(
        &self,
        budget: &RunBudget,
        store: Option<&StoreHandle>,
    ) -> Result<Json, CoreError> {
        self.check_budget(budget)?;
        let keyed = store.map(|s| (s, self.store_key()));
        if let Some((s, key)) = &keyed {
            if let Some(doc) = s.get(PIPELINE_STORE_NS, key) {
                return Ok(doc);
            }
        }
        let result = self.compute(budget, store)?;
        if let Some((s, key)) = &keyed {
            s.put(PIPELINE_STORE_NS, key, &result).ok();
        }
        Ok(result)
    }

    /// [`PipelineRequest::run_with_store`] without reading or writing the
    /// request's own store entry, for callers that resolve it themselves:
    /// `locapd` looks the entry up on the connection thread and writes a
    /// miss's encoded result back from the worker. The store still serves
    /// the census pipeline's per-radius entries.
    ///
    /// # Errors
    ///
    /// As [`PipelineRequest::run`].
    pub fn run_uncached(
        &self,
        budget: &RunBudget,
        store: Option<&StoreHandle>,
    ) -> Result<Json, CoreError> {
        self.check_budget(budget)?;
        self.compute(budget, store)
    }

    /// The check every run makes before any work or store lookup: an
    /// already-tripped budget (expired deadline, cancelled token) is a
    /// [`CoreError::Truncated`] naming this pipeline.
    ///
    /// # Errors
    ///
    /// That truncation, with its reason published to the registry.
    pub fn check_budget(&self, budget: &RunBudget) -> Result<(), CoreError> {
        match budget.check_interrupt() {
            Some(t) => Err(CoreError::Truncated { stage: self.pipeline(), reason: t.publish() }),
            None => Ok(()),
        }
    }

    /// The pipeline dispatch itself.
    fn compute(&self, budget: &RunBudget, store: Option<&StoreHandle>) -> Result<Json, CoreError> {
        match *self {
            PipelineRequest::EdsLower { delta_prime, n } => run_eds_lower(delta_prime, n, budget),
            PipelineRequest::Homogeneous { k, r, m } => run_homogeneous(k, r, m, budget),
            PipelineRequest::HomLift { cycle, m } => run_hom_lift(cycle, m, budget),
            PipelineRequest::OiToPo { algo, cycle, m } => run_oi_to_po(algo, cycle, m, budget),
            PipelineRequest::Ramsey { algo, universe, r, m } => {
                run_ramsey(algo, universe, r, m, budget)
            }
            PipelineRequest::Transfer { algo, cycle, m } => run_transfer(algo, cycle, m, budget),
            PipelineRequest::Census { family, radius } => run_census(family, radius, budget, store),
        }
    }

    /// The content key addressing this request's result document in a
    /// store: a digest of the pipeline name plus the canonical
    /// parameter encoding (which round-trips through `parse`, so equal
    /// requests key equally and distinct ones key distinctly).
    pub fn store_key(&self) -> StoreKey {
        StoreKey::of_bytes(format!("{} {}", self.pipeline(), self.params_json()).as_bytes())
    }
}

fn push_ratio(fields: &mut Vec<(String, Json)>, name: &str, r: Ratio) {
    fields.push((name.to_string(), Json::Str(r.to_string())));
    fields.push((format!("{name}_f64"), Json::Num(r.to_f64())));
}

fn push_num(fields: &mut Vec<(String, Json)>, name: &str, x: u64) {
    fields.push((name.to_string(), Json::Num(x as f64)));
}

fn run_eds_lower(delta_prime: usize, n: usize, budget: &RunBudget) -> Result<Json, CoreError> {
    let inst = eds_lower::eds_instance(delta_prime, n).ok_or_else(|| CoreError::BadParameters {
        reason: format!(
            "no EDS instance with delta_prime={delta_prime}, n={n} (n must be a multiple of 4k-1)"
        ),
    })?;
    let rep = eds_lower::lower_bound_report_budgeted(&inst, budget)?;
    let bound = eds_lower::eds_bound(delta_prime);
    let mut f = Vec::new();
    push_num(&mut f, "n", rep.n as u64);
    push_num(&mut f, "delta_prime", delta_prime as u64);
    push_num(&mut f, "lift_degree", inst.lift_degree as u64);
    push_num(&mut f, "opt", rep.opt as u64);
    push_num(&mut f, "min_symmetric", rep.min_symmetric as u64);
    push_num(&mut f, "view_classes", rep.view_classes as u64);
    push_ratio(&mut f, "ratio", rep.ratio);
    push_ratio(&mut f, "bound", bound);
    f.push(("tight".into(), Json::Bool(rep.ratio == bound)));
    Ok(Json::Obj(f))
}

fn run_homogeneous(k: usize, r: usize, m: u64, budget: &RunBudget) -> Result<Json, CoreError> {
    let h = homogeneous::construct_budgeted(k, r, m, budget)?;
    let mut f = Vec::new();
    push_num(&mut f, "k", k as u64);
    push_num(&mut f, "r", r as u64);
    push_num(&mut f, "m", h.modulus);
    push_num(&mut f, "level", h.level as u64);
    push_num(&mut f, "nodes", h.node_count() as u64);
    push_num(&mut f, "homogeneous_count", h.homogeneous_count as u64);
    let gens = h
        .gens
        .iter()
        .map(|g| Json::Arr(g.iter().map(|&c| Json::Num(c as f64)).collect()))
        .collect();
    f.push(("gens".into(), Json::Arr(gens)));
    push_ratio(&mut f, "fraction", h.fraction());
    push_ratio(&mut f, "inner_bound", h.inner_bound());
    Ok(Json::Obj(f))
}

fn run_hom_lift(cycle: usize, m: u64, budget: &RunBudget) -> Result<Json, CoreError> {
    let h = homogeneous::construct_budgeted(1, 1, m, budget)?;
    let g = gen::directed_cycle(cycle);
    let lift = hom_lift::homogeneous_lift_budgeted(&g, &h, budget)?;
    let mut f = Vec::new();
    push_num(&mut f, "base_nodes", g.node_count() as u64);
    push_num(&mut f, "m", m);
    push_num(&mut f, "lift_nodes", lift.node_count() as u64);
    push_ratio(&mut f, "good_fraction", lift.good_fraction());
    push_ratio(&mut f, "alpha", h.fraction());
    f.push(("meets_alpha".into(), Json::Bool(lift.good_fraction() >= h.fraction())));
    Ok(Json::Obj(f))
}

fn run_oi_to_po(algo: OiAlgo, cycle: usize, m: u64, budget: &RunBudget) -> Result<Json, CoreError> {
    let h = homogeneous::construct_budgeted(1, 1, m, budget)?;
    let b = oi_to_po::PoFromOi::from_homogeneous(algo, &h)?;
    let g = gen::directed_cycle(cycle);
    let bits = require_complete(run::po_vertex_budgeted(&g, &b, budget)?, "B on cycle")?;
    let set = run::to_vertex_set(&bits);
    let und = g.underlying_simple();
    let feasible = algo.feasible(&und, &set);
    let opt = algo.opt_value(&und);
    let ratio = approx_ratio(set.len(), opt, algo.goal());
    let mut f = Vec::new();
    f.push(("algo".into(), Json::Str(algo.name().into())));
    push_num(&mut f, "nodes", g.node_count() as u64);
    push_num(&mut f, "m", m);
    push_num(&mut f, "selected", set.len() as u64);
    f.push(("feasible".into(), Json::Bool(feasible)));
    push_num(&mut f, "opt", opt as u64);
    match ratio {
        Some(r) => push_ratio(&mut f, "ratio", r),
        None => f.push(("ratio".into(), Json::Null)),
    }
    Ok(Json::Obj(f))
}

fn run_ramsey(
    algo: IdAlgo,
    universe: u64,
    r: usize,
    m: usize,
    budget: &RunBudget,
) -> Result<Json, CoreError> {
    let ids: Vec<u64> = (1..=universe).collect();
    let Some((oi, j, bit)) = ramsey::ramsey_cycle_transfer_budgeted(algo, &ids, r, m, budget)?
    else {
        return Ok(Json::Obj(vec![
            ("algo".into(), Json::Str(algo.name().into())),
            ("found".into(), Json::Bool(false)),
        ]));
    };
    let verified = ramsey::verify_monochromatic(&algo, &j, r, bit);
    // A with identifiers from J on C_{|J|}, vs the induced OI algorithm B
    // on the same cycle ordered by the identifier order (the e10 check).
    let g = gen::cycle(j.len().max(3));
    let a_out = require_complete(run::id_vertex_budgeted(&g, &j, &algo, budget)?, "A on cycle")?;
    let rank = {
        let mut order: Vec<(usize, u64)> = j.iter().copied().enumerate().collect();
        order.sort_by_key(|&(_, id)| id);
        let mut rank = vec![0usize; j.len()];
        for (p, (v, _)) in order.into_iter().enumerate() {
            if let Some(slot) = rank.get_mut(v) {
                *slot = p;
            }
        }
        rank
    };
    let b_out = require_complete(run::oi_vertex_budgeted(&g, &rank, &oi, budget)?, "B on cycle")?;
    let agreement = run::agreement(&a_out, &b_out);
    Ok(Json::Obj(vec![
        ("algo".into(), Json::Str(algo.name().into())),
        ("found".into(), Json::Bool(true)),
        ("j".into(), Json::Arr(j.iter().map(|&x| Json::Num(x as f64)).collect())),
        ("forced_bit".into(), Json::Bool(bit)),
        ("verified".into(), Json::Bool(verified)),
        ("agreement_f64".into(), Json::Num(agreement)),
    ]))
}

fn run_transfer(algo: OiAlgo, cycle: usize, m: u64, budget: &RunBudget) -> Result<Json, CoreError> {
    let h = homogeneous::construct_budgeted(1, 1, m, budget)?;
    let g = gen::directed_cycle(cycle);
    let (rep, _lift) = transfer::transfer_vertex_budgeted(
        &g,
        &h,
        algo,
        algo.goal(),
        |und, x| algo.feasible(und, x),
        |und| algo.opt_value(und),
        budget,
    )?;
    let mut f = Vec::new();
    f.push(("algo".into(), Json::Str(algo.name().into())));
    push_num(&mut f, "base_nodes", g.node_count() as u64);
    push_num(&mut f, "m", m);
    push_num(&mut f, "lift_nodes", rep.lift_nodes as u64);
    push_ratio(&mut f, "agreement", rep.agreement);
    push_ratio(&mut f, "alpha", h.fraction());
    push_num(&mut f, "a_on_lift", rep.a_on_lift as u64);
    push_num(&mut f, "b_on_lift", rep.b_on_lift as u64);
    push_num(&mut f, "b_size", rep.b_on_g.len() as u64);
    f.push(("feasible".into(), Json::Bool(rep.feasible)));
    push_num(&mut f, "opt", rep.opt as u64);
    match rep.ratio {
        Some(r) => push_ratio(&mut f, "ratio", r),
        None => f.push(("ratio".into(), Json::Null)),
    }
    Ok(Json::Obj(f))
}

fn run_census(
    family: CensusFamily,
    radius: usize,
    budget: &RunBudget,
    store: Option<&StoreHandle>,
) -> Result<Json, CoreError> {
    let d = family.build();
    let mut cache = ViewCache::new(&d);
    let mut per_radius = Vec::new();
    for r in 1..=radius {
        // the census itself only honours the cache cap; deadline,
        // cancellation and the round limit (one round per radius) are
        // checked here between radii
        if let Some(t) = budget.check_interrupt().or_else(|| budget.check_rounds(r - 1)) {
            return Err(CoreError::Truncated { stage: "census", reason: t.publish() });
        }
        let census = match store {
            Some(s) => cache.try_census_stored(r, budget.cache_cap(), s),
            None => cache.try_census(r, budget.cache_cap()),
        }
        .map_err(|t| CoreError::Truncated { stage: "census", reason: t.publish() })?;
        per_radius.push(Json::Obj(vec![
            ("radius".into(), Json::Num(r as f64)),
            ("classes".into(), Json::Num(census.len() as f64)),
        ]));
    }
    Ok(Json::Obj(vec![
        ("family".into(), Json::Str(family.describe())),
        ("nodes".into(), Json::Num(d.node_count() as f64)),
        ("radius".into(), Json::Num(radius as f64)),
        ("per_radius".into(), Json::Arr(per_radius)),
    ]))
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::time::Duration;

    use locap_graph::budget::{CancelToken, ManualClock};

    use super::*;

    fn parse_req(pipeline: &str, params: &str) -> Result<PipelineRequest, RequestError> {
        PipelineRequest::parse(pipeline, &Json::parse(params).expect("test params are valid"))
    }

    #[test]
    fn unknown_pipeline_is_typed() {
        let e = parse_req("frobnicate", "{}").expect_err("unknown pipeline must fail");
        assert_eq!(e.kind(), "unknown_pipeline");
        assert!(e.to_string().contains("frobnicate"));
    }

    #[test]
    fn missing_and_bad_params_are_typed() {
        let e = parse_req("eds-lower", "{}").expect_err("n is required");
        assert_eq!(e.kind(), "missing_param");
        let e = parse_req("eds-lower", "{\"n\": \"nine\"}").expect_err("n must be an integer");
        assert_eq!(e.kind(), "bad_param");
        let e = parse_req("hom-lift", "{\"cycle\": 2, \"m\": 6}").expect_err("cycle >= 3");
        assert_eq!(e.kind(), "bad_param");
        let e = parse_req("oi-to-po", "{\"algo\": \"nope\", \"cycle\": 9}")
            .expect_err("unknown algorithm");
        assert_eq!(e.kind(), "bad_param");
        let big = format!("{{\"n\": {}}}", MAX_PARAM + 1);
        let e = parse_req("eds-lower", &big).expect_err("cap enforced");
        assert_eq!(e.kind(), "bad_param");
        // sizes the exact solvers cannot take are rejected before running
        let over = MAX_EXACT_NODES + 1;
        for (pipeline, params) in [
            ("eds-lower", format!("{{\"delta_prime\": 2, \"n\": {over}}}")),
            ("oi-to-po", format!("{{\"algo\": \"vc-non-min\", \"cycle\": {over}}}")),
            ("transfer", format!("{{\"algo\": \"is-local-min\", \"cycle\": {over}}}")),
        ] {
            let e = parse_req(pipeline, &params).expect_err("exact-solver limit enforced");
            assert_eq!(e.kind(), "bad_param", "{pipeline}");
            let at_limit = params.replace(&over.to_string(), &MAX_EXACT_NODES.to_string());
            assert!(parse_req(pipeline, &at_limit).is_ok(), "{pipeline} accepts the limit");
        }
    }

    #[test]
    fn toroidal_census_size_is_bounded_at_parse() {
        let toroidal = |k: u64, m: u64| {
            parse_req("census", &format!("{{\"family\": \"toroidal\", \"k\": {k}, \"m\": {m}}}"))
        };
        // m^k overflows u64, or m^k · (1 + 2k) exceeds 3 · MAX_PARAM
        for (k, m) in [(4, 1 << 20), (8, 256), (1 << 20, 3), (20, 3), (2, 100_000), (2, 794)] {
            let e = toroidal(k, m).expect_err("oversized torus rejected");
            assert_eq!(e.kind(), "bad_param", "k = {k}, m = {m}");
        }
        for (k, m) in [(2, 792), (2, 793), (10, 3), (1, MAX_PARAM)] {
            assert!(toroidal(k, m).is_ok(), "k = {k}, m = {m} stays admitted");
        }
    }

    #[test]
    fn params_round_trip() {
        for (pipeline, params) in [
            ("eds-lower", "{\"delta_prime\": 2, \"n\": 9}"),
            ("homogeneous", "{\"k\": 1, \"r\": 1, \"m\": 6}"),
            ("hom-lift", "{\"cycle\": 3, \"m\": 6}"),
            ("oi-to-po", "{\"algo\": \"vc-non-min\", \"cycle\": 9, \"m\": 6}"),
            ("ramsey", "{\"algo\": \"local-max\", \"universe\": 20, \"r\": 1, \"m\": 5}"),
            ("transfer", "{\"algo\": \"is-local-min\", \"cycle\": 9, \"m\": 6}"),
            ("census", "{\"family\": \"directed-cycle\", \"n\": 12, \"radius\": 2}"),
            ("census", "{\"family\": \"toroidal\", \"k\": 2, \"m\": 3, \"radius\": 1}"),
        ] {
            let req = parse_req(pipeline, params).expect("valid request");
            let back = PipelineRequest::parse(pipeline, &req.params_json())
                .expect("serialised params re-parse");
            assert_eq!(req, back, "{pipeline} round-trips");
        }
    }

    #[test]
    fn eds_lower_runs_and_reports_tight_ratio() {
        let req = parse_req("eds-lower", "{\"n\": 9}").expect("valid request");
        let out = req.run(&RunBudget::unlimited()).expect("pipeline succeeds");
        assert_eq!(out.get("ratio").and_then(Json::as_str), Some("3"));
        assert_eq!(out.get("tight"), Some(&Json::Bool(true)));
    }

    #[test]
    fn census_runs() {
        let req = parse_req("census", "{\"family\": \"directed-cycle\", \"n\": 12}")
            .expect("valid request");
        let out = req.run(&RunBudget::unlimited()).expect("pipeline succeeds");
        assert_eq!(out.get("nodes").and_then(Json::as_u64), Some(12));
        let rows = out.get("per_radius").and_then(Json::as_array).expect("rows");
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn every_pipeline_truncates_on_expired_deadline() {
        let clock = Arc::new(ManualClock::new());
        let budget = RunBudget::unlimited().with_deadline(Duration::from_millis(1), clock.clone());
        clock.advance(Duration::from_millis(5));
        for (pipeline, params) in [
            ("eds-lower", "{\"n\": 9}"),
            ("homogeneous", "{\"m\": 6}"),
            ("hom-lift", "{\"cycle\": 3, \"m\": 6}"),
            ("oi-to-po", "{\"algo\": \"vc-non-min\", \"cycle\": 9}"),
            ("ramsey", "{\"algo\": \"local-max\", \"m\": 5}"),
            ("transfer", "{\"algo\": \"vc-non-min\", \"cycle\": 9}"),
            ("census", "{\"family\": \"directed-cycle\", \"n\": 12}"),
        ] {
            let req = parse_req(pipeline, params).expect("valid request");
            let err = req.run(&budget).expect_err("expired deadline must truncate");
            assert!(
                matches!(err, CoreError::Truncated { .. }),
                "{pipeline}: expected truncation, got {err}"
            );
        }
    }

    #[test]
    fn stored_runs_answer_warm_and_match_the_cold_result() {
        let dir = std::env::temp_dir().join(format!("locap-core-store-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = StoreHandle::open(&dir).expect("open scratch store");
        for (pipeline, params) in [
            ("eds-lower", "{\"n\": 9}"),
            ("census", "{\"family\": \"directed-cycle\", \"n\": 12, \"radius\": 2}"),
        ] {
            let req = parse_req(pipeline, params).expect("valid request");
            let before = store.stats();
            let cold = req
                .run_with_store(&RunBudget::unlimited(), Some(&store))
                .expect("cold run succeeds");
            assert_eq!(cold, req.run(&RunBudget::unlimited()).expect("storeless run"));
            let warm = req
                .run_with_store(&RunBudget::unlimited(), Some(&store))
                .expect("warm run succeeds");
            assert_eq!(warm, cold, "{pipeline}: warm result identical");
            let after = store.stats();
            assert!(after.warm_hit > before.warm_hit, "{pipeline}: served from store");
            assert!(after.write > before.write, "{pipeline}: cold run wrote back");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cancellation_truncates_before_work() {
        let token = CancelToken::new();
        token.cancel();
        let budget = RunBudget::unlimited().with_cancel(token);
        let req = parse_req("homogeneous", "{\"m\": 6}").expect("valid request");
        let err = req.run(&budget).expect_err("cancelled budget must truncate");
        assert!(err.to_string().contains("cancelled"), "got {err}");
    }
}
