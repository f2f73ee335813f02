//! The benchmark model library: every program used by the paper's
//! evaluation (Sec. 2, Sec. 6, Tables 1–4, Fig. 8), written in SPPL
//! source or generated programmatically.
//!
//! Third-party benchmark programs (FairSquare decision trees, R2/PSI
//! models, the Heart Disease network) are re-encoded from their published
//! structural descriptions with the same variable counts and distribution
//! families as the paper reports; see DESIGN.md §2 for the substitution
//! policy.

pub mod fairness;
pub mod hmm;
pub mod indian_gpa;
pub mod networks;
pub mod psi_suite;
pub mod rare_event;

use sppl_analyze::compile_model;
use sppl_core::{Factory, Model, Spe};
use sppl_lang::{compile, LangError};

/// A named benchmark program: SPPL source text plus its display name.
/// (Distinct from [`sppl_core::Model`], the compiled, queryable session a
/// source turns into — get one with [`ModelSource::session`].)
#[derive(Debug, Clone)]
pub struct ModelSource {
    /// Display name (matches the paper's benchmark tables).
    pub name: String,
    /// SPPL source text.
    pub source: String,
}

impl ModelSource {
    /// Creates a model source from a name and source text.
    pub fn new<N: Into<String>, S: Into<String>>(name: N, source: S) -> ModelSource {
        ModelSource {
            name: name.into(),
            source: source.into(),
        }
    }

    /// Compiles the program into a bare expression interned in the given
    /// factory (the low-level surface; see [`ModelSource::session`] for
    /// the session-first one).
    ///
    /// # Errors
    ///
    /// Propagates parser/translator errors ([`LangError`]).
    pub fn compile(&self, factory: &Factory) -> Result<Spe, LangError> {
        compile(factory, &self.source)
    }

    /// Compiles the program into a ready-to-query [`Model`] session
    /// (its own factory and query caches).
    ///
    /// # Errors
    ///
    /// Propagates parser/translator errors ([`LangError`]).
    ///
    /// ```
    /// use sppl_core::prelude::*;
    ///
    /// let model = sppl_models::indian_gpa::model().session().unwrap();
    /// assert!((model.prob(&var("GPA").le(4.0)).unwrap() - 0.68).abs() < 1e-9);
    /// ```
    pub fn session(&self) -> Result<Model, LangError> {
        compile_model(&self.source)
    }

    /// Number of non-empty source lines (the paper's LoC metric in
    /// Table 2).
    pub fn lines_of_code(&self) -> usize {
        self.source
            .lines()
            .filter(|l| {
                let t = l.trim();
                !t.is_empty() && !t.starts_with('#')
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_of_code_ignores_blanks_and_comments() {
        let m = ModelSource::new("m", "X ~ normal(0,1)\n\n# comment\nY = X + 1\n");
        assert_eq!(m.lines_of_code(), 2);
    }
}
