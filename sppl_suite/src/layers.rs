//! The suite's calls into each layer, wrapped in spans when tracing is
//! on. With tracing off every helper is the plain user-path call.

use std::collections::HashSet;

use sppl_core::density::Assignment;
use sppl_core::stats::physical_node_count;
use sppl_core::{disjoin, Event, Factory, Model, ModelDigest};

use crate::trace::Tracer;

/// Compiles `text` into a session.
///
/// Untraced, this is `sppl_analyze::compile_model`, the user's entry
/// point (behind the process-wide compile cache). Traced, the same miss
/// path runs one public call per layer: the cache's two key digests
/// (checked against the keys this run has already compiled), parse,
/// analyze, translate, and the wire encoding the cache stores.
pub fn compile(
    tr: &mut Tracer,
    text: &str,
    seen: &mut HashSet<ModelDigest>,
) -> Result<Model, String> {
    if !tr.on() {
        return sppl_analyze::compile_model(text).map_err(|e| e.to_string());
    }
    let text_key = tr.span("analyze.compile_cache", |_| {
        sppl_analyze::source_text_digest(text)
    });
    tr.count("analyze.compile_cache.lookups", 1.0);
    if !seen.insert(text_key) {
        tr.count("analyze.compile_cache.hits", 1.0);
    }
    let program = tr
        .span("lang.parse", |_| sppl_lang::parse(text))
        .map_err(|e| e.to_string())?;
    let analysis = tr.span("analyze", |_| sppl_analyze::analyze(&program));
    if let Some(d) = analysis.first_error() {
        return Err(format!("analyzer rejected a suite program: {d:?}"));
    }
    tr.span("analyze.compile_cache", |_| {
        sppl_analyze::ast_digest(&analysis.pruned)
    });
    let factory = Factory::new();
    let root = tr
        .span("lang.translate", |_| {
            sppl_lang::translate(&factory, &analysis.pruned)
        })
        .map_err(|e| e.to_string())?;
    let bytes = tr.span("core.wire.encode", |_| sppl_core::serialize_spe(&root));
    let model = Model::new(factory, root);
    tr.side("suite.count", |tr| {
        tr.count(
            "lang.translate.nodes",
            physical_node_count(model.root()) as f64,
        );
        tr.count("core.wire.bytes", bytes.len() as f64);
    });
    // What a disk-tier hit or a serve `import` would do with the bytes.
    let decoded = tr.side("core.wire.decode", |_| {
        let f = Factory::new();
        sppl_core::deserialize_spe(&f, &bytes).map(|root| Model::new(f, root))
    });
    match decoded {
        Ok(m) if m.model_digest() == model.model_digest() => Ok(model),
        _ => Err("wire round trip changed the model digest".to_string()),
    }
}

pub fn constrain(tr: &mut Tracer, model: &Model, a: &Assignment) -> Result<Model, String> {
    tr.span("core.constrain", |_| model.constrain(a))
        .map_err(|e| e.to_string())
}

pub fn condition(tr: &mut Tracer, model: &Model, e: &Event) -> Result<Model, String> {
    tr.span("core.condition", |_| model.condition(e))
        .map_err(|e| e.to_string())
}

/// `Model::logprob_many` under a `core.engine` span, counting events and
/// the session's memo hits.
pub fn logprob_many(tr: &mut Tracer, model: &Model, events: &[Event]) -> Result<Vec<f64>, String> {
    let before = tr.on().then(|| model.stats());
    let out = tr
        .span("core.engine", |_| model.logprob_many(events))
        .map_err(|e| e.to_string())?;
    engine_counts(tr, model, before, events.len());
    Ok(out)
}

/// `Model::prob` under a `core.engine` span.
pub fn prob(tr: &mut Tracer, model: &Model, event: &Event) -> Result<f64, String> {
    let before = tr.on().then(|| model.stats());
    let out = tr
        .span("core.engine", |_| model.prob(event))
        .map_err(|e| e.to_string())?;
    engine_counts(tr, model, before, 1);
    Ok(out)
}

fn engine_counts(
    tr: &mut Tracer,
    model: &Model,
    before: Option<sppl_core::CacheStats>,
    events: usize,
) {
    if let Some(before) = before {
        let after = model.stats();
        tr.count("core.engine.events", events as f64);
        tr.count("core.engine.hits", (after.hits - before.hits) as f64);
        tr.count(
            "core.engine.lookups",
            (after.hits + after.misses - before.hits - before.misses) as f64,
        );
    }
}

/// Side measurement of event solving: `Event::canonical` and
/// `disjoin::solve_and_disjoin` on the events a batch evaluates.
pub fn disjoin_side(tr: &mut Tracer, events: &[Event]) {
    if !tr.on() {
        return;
    }
    let clauses = tr.side("core.disjoin", |_| {
        events
            .iter()
            .map(|e| disjoin::solve_and_disjoin(&e.canonical()).map_or(0, |c| c.len()))
            .sum::<usize>()
    });
    tr.count("core.disjoin.events", events.len() as f64);
    tr.count("core.disjoin.clauses", clauses as f64);
}
