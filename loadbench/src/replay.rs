//! The in-process replay: the same frames the daemon receives, run
//! through each layer's public functions in the order
//! `PipelineRequest::run_with_store` (`crates/core/src/request.rs`) calls
//! them, with a span recorded around every call. No daemon, no socket.
//!
//! The replay also gives the reference result of every request: the
//! measured runs must return byte-identical results.

use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use locap_core::request::{CensusFamily, IdAlgo, OiAlgo, PipelineRequest, PIPELINE_STORE_NS};
use locap_core::{eds_lower, hom_lift, homogeneous, oi_to_po, ramsey, transfer, CoreError};
use locap_graph::budget::{Budgeted, CancelToken, MonotonicClock, RunBudget, StdClock};
use locap_graph::{gen, product, Graph};
use locap_lifts::ViewCache;
use locap_models::run;
use locap_num::Ratio;
use locap_obs::json::Json;
use locap_problems::{approx_ratio, independent_set, vertex_cover};
use locap_serve::daemon::DaemonConfig;
use locap_serve::protocol::{
    core_error_kind, err_response, ok_response, parse_request, Request as WireRequest,
};
use locap_store::StoreHandle;

/// What a span measures. `Request` is the root of one request; every
/// other layer is a call into that crate's public functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Request,
    ServeParse,
    ServeEncode,
    StoreGet,
    StorePut,
    LiftsCensus,
    GraphBuild,
    CoreHomogeneous,
    CoreTransfer,
    CoreHomLift,
    CoreEdsLower,
    CoreRamsey,
    CoreOiToPo,
    ModelsRun,
    ProblemsOpt,
}

/// One recorded call: times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: Layer,
    pub req: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans in memory; nothing is written until the run ends.
/// Interior mutability lets `Fn` closures handed to the pipelines record
/// spans too.
pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u32>>,
    req: Cell<u32>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            req: Cell::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span of `layer`, nested under the open span.
    pub fn span<T>(&self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span { layer, req: self.req.get(), parent, start_ns: 0, end_ns: 0 });
            let idx = spans.len() - 1;
            spans[idx].start_ns = self.now_ns();
            idx
        };
        self.open.borrow_mut().push(idx as u32);
        let out = f();
        let end = self.now_ns();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = end;
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Per-layer self time: a span's duration minus the time its children
/// cover (children of one span never overlap: the replay is sequential).
pub fn self_times(spans: &[Span]) -> Vec<(Layer, u64)> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p as usize] += s.end_ns - s.start_ns;
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| (s.layer, (s.end_ns - s.start_ns).saturating_sub(c)))
        .collect()
}

/// The outcome of one request: the hash of its `result`, or the error
/// kind of its `ok:false` response.
pub type Outcome = Result<u64, String>;

/// FNV-1a over bytes: stable across runs, processes and toolchains.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// The hash of the `result` document inside an `ok` response line, as
/// written by `ok_response` (`{"id":…,"ok":true,"pipeline":…,
/// "elapsed_ms":…,"result":…}`): the bytes after `"result":` up to the
/// closing brace. `None` when the line is not shaped so.
pub fn result_hash(line: &[u8]) -> Option<u64> {
    const KEY: &[u8] = b",\"result\":";
    let line = line.strip_suffix(b"\n").unwrap_or(line);
    let at = line.windows(KEY.len()).position(|w| w == KEY)?;
    let body = line.get(at + KEY.len()..line.len().checked_sub(1)?)?;
    (line.last() == Some(&b'}')).then(|| fnv1a(body))
}

/// Whether a result document reports `"feasible": false` (oi-to-po and
/// transfer results carry the flag; a false one is a wrong answer).
pub fn infeasible(result: &Json) -> bool {
    result.get("feasible") == Some(&Json::Bool(false))
}

/// Replays `frames[i]` for each `i` in `order` under `tracer`, with the
/// daemon's default budget and, when given, a result store. Returns the
/// outcome of each request sent, in order.
pub fn replay(
    frames: &[String],
    order: &[u32],
    store: Option<&StoreHandle>,
    tracer: &Tracer,
) -> Vec<Outcome> {
    let config = DaemonConfig::default();
    order
        .iter()
        .enumerate()
        .map(|(n, &i)| {
            tracer.req.set(n as u32);
            let line = tracer
                .span(Layer::Request, || serve_one(&frames[i as usize], &config, store, tracer));
            match line {
                Ok((line, feasible)) => match result_hash(line.as_bytes()) {
                    Some(h) if feasible => Ok(h),
                    Some(_) => Err("mismatch/infeasible".into()),
                    None => Err("mismatch/shape".into()),
                },
                Err(kind) => Err(kind),
            }
        })
        .collect()
}

/// What a daemon worker does with one frame, minus the socket and the
/// queue: parse, realise the budget, run, encode the response line.
fn serve_one(
    frame: &str,
    config: &DaemonConfig,
    store: Option<&StoreHandle>,
    t: &Tracer,
) -> Result<(String, bool), String> {
    let parsed = t.span(Layer::ServeParse, || parse_request(frame.as_bytes()));
    let (id, request, spec) = match parsed {
        Ok(WireRequest::Pipeline { id, request, budget }) => (id, request, budget),
        Ok(_) => return Err("protocol/not_a_pipeline".into()),
        Err(e) => return Err(e.kind()),
    };
    // The daemon's budget shape (default deadline, connection and drain
    // tokens), with the deadline clock started at job start.
    let clock: Arc<dyn MonotonicClock> = Arc::new(StdClock::new());
    let budget = spec
        .realize(&clock, config.default_deadline, config.max_deadline)
        .with_cancel(CancelToken::new())
        .with_cancel(CancelToken::new());
    let started = Instant::now();
    let outcome = run_with_store(t, &request, &budget, store);
    let elapsed_ms = started.elapsed().as_millis() as u64;
    match outcome {
        Ok(result) => {
            let feasible = !infeasible(&result);
            let line = t.span(Layer::ServeEncode, || {
                format!("{}\n", ok_response(&id, request.pipeline(), elapsed_ms, result))
            });
            Ok((line, feasible))
        }
        Err(e) => {
            let kind = core_error_kind(&e);
            t.span(Layer::ServeEncode, || {
                format!("{}\n", err_response(&id, &kind, &e.to_string()))
            });
            Err(kind)
        }
    }
}

fn truncated(stage: &'static str, reason: locap_graph::budget::TruncationReason) -> CoreError {
    CoreError::Truncated { stage, reason: reason.publish() }
}

fn complete<T>(run: Budgeted<T>, stage: &'static str) -> Result<T, CoreError> {
    match run.truncation {
        None => Ok(run.value),
        Some(reason) => Err(CoreError::Truncated { stage, reason }),
    }
}

fn run_with_store(
    t: &Tracer,
    req: &PipelineRequest,
    budget: &RunBudget,
    store: Option<&StoreHandle>,
) -> Result<Json, CoreError> {
    if let Some(reason) = budget.check_interrupt() {
        return Err(truncated(req.pipeline(), reason));
    }
    // the store span includes deriving the content key, which only the
    // store needs
    let keyed = store.map(|s| t.span(Layer::StoreGet, || (s, req.store_key())));
    if let Some((s, key)) = &keyed {
        if let Some(doc) = t.span(Layer::StoreGet, || s.get(PIPELINE_STORE_NS, key)) {
            return Ok(doc);
        }
    }
    let result = match *req {
        PipelineRequest::EdsLower { delta_prime, n } => eds_lower_report(t, delta_prime, n, budget),
        PipelineRequest::Homogeneous { k, r, m } => homogeneous_report(t, k, r, m, budget),
        PipelineRequest::HomLift { cycle, m } => hom_lift_report(t, cycle, m, budget),
        PipelineRequest::OiToPo { algo, cycle, m } => oi_to_po_report(t, algo, cycle, m, budget),
        PipelineRequest::Ramsey { algo, universe, r, m } => {
            ramsey_report(t, algo, universe, r, m, budget)
        }
        PipelineRequest::Transfer { algo, cycle, m } => transfer_report(t, algo, cycle, m, budget),
        PipelineRequest::Census { family, radius } => {
            census_report(t, family, radius, budget, store)
        }
    }?;
    if let Some((s, key)) = &keyed {
        t.span(Layer::StorePut, || s.put(PIPELINE_STORE_NS, key, &result)).ok();
    }
    Ok(result)
}

fn push_ratio(fields: &mut Vec<(String, Json)>, name: &str, r: Ratio) {
    fields.push((name.to_string(), Json::Str(r.to_string())));
    fields.push((format!("{name}_f64"), Json::Num(r.to_f64())));
}

fn push_num(fields: &mut Vec<(String, Json)>, name: &str, x: u64) {
    fields.push((name.to_string(), Json::Num(x as f64)));
}

fn push_opt_ratio(fields: &mut Vec<(String, Json)>, name: &str, r: Option<Ratio>) {
    match r {
        Some(r) => push_ratio(fields, name, r),
        None => fields.push((name.into(), Json::Null)),
    }
}

fn oi_feasible(algo: OiAlgo, g: &Graph, x: &BTreeSet<usize>) -> bool {
    match algo {
        OiAlgo::VcNonMin => vertex_cover::feasible(g, x),
        OiAlgo::IsLocalMin => independent_set::feasible(g, x),
    }
}

fn oi_opt(t: &Tracer, algo: OiAlgo, g: &Graph) -> usize {
    t.span(Layer::ProblemsOpt, || match algo {
        OiAlgo::VcNonMin => vertex_cover::opt_value(g),
        OiAlgo::IsLocalMin => independent_set::opt_value(g),
    })
}

fn eds_lower_report(
    t: &Tracer,
    delta_prime: usize,
    n: usize,
    budget: &RunBudget,
) -> Result<Json, CoreError> {
    let inst = t
        .span(Layer::CoreEdsLower, || eds_lower::eds_instance(delta_prime, n))
        .ok_or_else(|| CoreError::BadParameters {
            reason: format!(
                "no EDS instance with delta_prime={delta_prime}, n={n} (n must be a multiple of 4k-1)"
            ),
        })?;
    let rep =
        t.span(Layer::CoreEdsLower, || eds_lower::lower_bound_report_budgeted(&inst, budget))?;
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

fn construct(
    t: &Tracer,
    k: usize,
    r: usize,
    m: u64,
    budget: &RunBudget,
) -> Result<homogeneous::HomogeneousGraph, CoreError> {
    t.span(Layer::CoreHomogeneous, || homogeneous::construct_budgeted(k, r, m, budget))
}

fn homogeneous_report(
    t: &Tracer,
    k: usize,
    r: usize,
    m: u64,
    budget: &RunBudget,
) -> Result<Json, CoreError> {
    let h = construct(t, k, r, m, budget)?;
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

fn hom_lift_report(
    t: &Tracer,
    cycle: usize,
    m: u64,
    budget: &RunBudget,
) -> Result<Json, CoreError> {
    let h = construct(t, 1, 1, m, budget)?;
    let g = t.span(Layer::GraphBuild, || gen::directed_cycle(cycle));
    // the lift is read and freed inside its span: freeing it is hom_lift's cost
    let (lift_nodes, good) = t.span(Layer::CoreHomLift, || {
        hom_lift::homogeneous_lift_budgeted(&g, &h, budget)
            .map(|l| (l.node_count(), l.good_fraction()))
    })?;
    let mut f = Vec::new();
    push_num(&mut f, "base_nodes", g.node_count() as u64);
    push_num(&mut f, "m", m);
    push_num(&mut f, "lift_nodes", lift_nodes as u64);
    push_ratio(&mut f, "good_fraction", good);
    push_ratio(&mut f, "alpha", h.fraction());
    f.push(("meets_alpha".into(), Json::Bool(good >= h.fraction())));
    Ok(Json::Obj(f))
}

fn oi_to_po_report(
    t: &Tracer,
    algo: OiAlgo,
    cycle: usize,
    m: u64,
    budget: &RunBudget,
) -> Result<Json, CoreError> {
    let h = construct(t, 1, 1, m, budget)?;
    let b = t.span(Layer::CoreOiToPo, || oi_to_po::PoFromOi::from_homogeneous(algo, &h))?;
    let g = t.span(Layer::GraphBuild, || gen::directed_cycle(cycle));
    let bits = complete(
        t.span(Layer::ModelsRun, || run::po_vertex_budgeted(&g, &b, budget))?,
        "B on cycle",
    )?;
    let set = run::to_vertex_set(&bits);
    let und = g.underlying_simple();
    let feasible = oi_feasible(algo, &und, &set);
    let opt = oi_opt(t, algo, &und);
    let ratio = approx_ratio(set.len(), opt, algo.goal());
    let mut f = Vec::new();
    f.push(("algo".into(), Json::Str(algo.name().into())));
    push_num(&mut f, "nodes", g.node_count() as u64);
    push_num(&mut f, "m", m);
    push_num(&mut f, "selected", set.len() as u64);
    f.push(("feasible".into(), Json::Bool(feasible)));
    push_num(&mut f, "opt", opt as u64);
    push_opt_ratio(&mut f, "ratio", ratio);
    Ok(Json::Obj(f))
}

fn ramsey_report(
    t: &Tracer,
    algo: IdAlgo,
    universe: u64,
    r: usize,
    m: usize,
    budget: &RunBudget,
) -> Result<Json, CoreError> {
    let ids: Vec<u64> = (1..=universe).collect();
    let found = t.span(Layer::CoreRamsey, || {
        ramsey::ramsey_cycle_transfer_budgeted(algo, &ids, r, m, budget)
    })?;
    let Some((oi, j, bit)) = found else {
        return Ok(Json::Obj(vec![
            ("algo".into(), Json::Str(algo.name().into())),
            ("found".into(), Json::Bool(false)),
        ]));
    };
    let verified = t.span(Layer::CoreRamsey, || ramsey::verify_monochromatic(&algo, &j, r, bit));
    let g = t.span(Layer::GraphBuild, || gen::cycle(j.len().max(3)));
    let a_out = complete(
        t.span(Layer::ModelsRun, || run::id_vertex_budgeted(&g, &j, &algo, budget))?,
        "A on cycle",
    )?;
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
    let b_out = complete(
        t.span(Layer::ModelsRun, || run::oi_vertex_budgeted(&g, &rank, &oi, budget))?,
        "B on cycle",
    )?;
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

fn transfer_report(
    t: &Tracer,
    algo: OiAlgo,
    cycle: usize,
    m: u64,
    budget: &RunBudget,
) -> Result<Json, CoreError> {
    let h = construct(t, 1, 1, m, budget)?;
    let g = t.span(Layer::GraphBuild, || gen::directed_cycle(cycle));
    // the lift is freed inside the span: freeing it is the transfer's cost
    let rep = t.span(Layer::CoreTransfer, || {
        transfer::transfer_vertex_budgeted(
            &g,
            &h,
            algo,
            algo.goal(),
            |und, x| oi_feasible(algo, und, x),
            |und| oi_opt(t, algo, und),
            budget,
        )
        .map(|(rep, _lift)| rep)
    })?;
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
    push_opt_ratio(&mut f, "ratio", rep.ratio);
    Ok(Json::Obj(f))
}

fn census_report(
    t: &Tracer,
    family: CensusFamily,
    radius: usize,
    budget: &RunBudget,
    store: Option<&StoreHandle>,
) -> Result<Json, CoreError> {
    let (d, describe) = t.span(Layer::GraphBuild, || match family {
        CensusFamily::DirectedCycle { n } => {
            (gen::directed_cycle(n), format!("directed-cycle({n})"))
        }
        CensusFamily::Toroidal { k, m } => (product::toroidal(k, m), format!("toroidal({k},{m})")),
    });
    let mut cache = t.span(Layer::LiftsCensus, || ViewCache::new(&d));
    let mut per_radius = Vec::new();
    for r in 1..=radius {
        if let Some(reason) = budget.check_interrupt().or_else(|| budget.check_rounds(r - 1)) {
            return Err(truncated("census", reason));
        }
        // the census trees are freed inside the span that built them
        let classes = t
            .span(Layer::LiftsCensus, || {
                match store {
                    Some(s) => cache.try_census_stored(r, budget.cache_cap(), s),
                    None => cache.try_census(r, budget.cache_cap()),
                }
                .map(|census| census.len())
            })
            .map_err(|reason| truncated("census", reason))?;
        per_radius.push(Json::Obj(vec![
            ("radius".into(), Json::Num(r as f64)),
            ("classes".into(), Json::Num(classes as f64)),
        ]));
    }
    let nodes = d.node_count();
    t.span(Layer::LiftsCensus, || drop(cache));
    t.span(Layer::GraphBuild, || drop(d));
    Ok(Json::Obj(vec![
        ("family".into(), Json::Str(describe)),
        ("nodes".into(), Json::Num(nodes as f64)),
        ("radius".into(), Json::Num(radius as f64)),
        ("per_radius".into(), Json::Arr(per_radius)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::{Sequence, Workload};

    /// The replay is a second copy of the pipelines' report code, so it
    /// must agree with `PipelineRequest::run` on every class it sends.
    #[test]
    fn replay_matches_the_pipeline_dispatch() {
        let mut seq = Sequence::generate(Workload::WarmReplay, 3, 1);
        // the cheap half of the paper grid plus a few census requests
        seq.requests.retain(|r| {
            r.pipeline == "census"
                || r.params.get("m").and_then(Json::as_u64).is_none_or(|m| m <= 12)
        });
        seq.requests.truncate(60);
        let frames: Vec<String> =
            seq.requests.iter().enumerate().map(|(i, r)| r.frame(i)).collect();
        let order: Vec<u32> = (0..frames.len() as u32).collect();
        let got = replay(&frames, &order, None, &Tracer::new());
        for (i, r) in seq.requests.iter().enumerate() {
            let req =
                PipelineRequest::parse(r.pipeline, &r.params).expect("generated requests parse");
            let want = req.run(&RunBudget::unlimited()).expect("pipeline succeeds");
            let line = ok_response(&Json::Num(i as f64), r.pipeline, 0, want).to_string();
            assert_eq!(
                got[i],
                Ok(result_hash(line.as_bytes()).expect("ok shape")),
                "{}",
                frames[i]
            );
        }
    }

    #[test]
    fn result_hash_reads_only_the_result() {
        let a = br#"{"id":1,"ok":true,"pipeline":"census","elapsed_ms":3,"result":{"x":1}}"#;
        let b = br#"{"id":1,"ok":true,"pipeline":"census","elapsed_ms":9,"result":{"x":1}}"#;
        let c = br#"{"id":1,"ok":true,"pipeline":"census","elapsed_ms":9,"result":{"x":2}}"#;
        assert_eq!(result_hash(a), result_hash(b));
        assert_ne!(result_hash(a), result_hash(c));
        assert_eq!(result_hash(b"{\"id\":1,\"ok\":false}"), None);
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new();
        t.span(Layer::Request, || {
            t.span(Layer::ServeParse, || std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        let spans = t.into_spans();
        let selfs = self_times(&spans);
        let total = spans[0].end_ns - spans[0].start_ns;
        assert_eq!(selfs[0].1 + selfs[1].1, total);
        assert!(selfs[1].1 >= 2_000_000);
    }
}
