//! The [`Pass`] trait: one named, typed transformation of the flow.

use crate::ir::{Ir, StageSet};
use crate::FlowError;
use qdaflow_quantum::resource::ResourceCounts;

/// A single compilation pass, the unit a [`Pipeline`](crate::Pipeline) is
/// composed of.
///
/// A pass declares which [stages](crate::Stage) it [`accepts`](Pass::accepts)
/// and which it may [produce](Pass::output); the pipeline builder uses those
/// declarations to reject invalid pass orders (such as `tpar` before `rptm`)
/// *before* anything runs. At run time the pass transforms one [`Ir`] value
/// into the next.
///
/// # Example
///
/// A custom pass that reverses a reversible circuit (its own inverse when
/// every gate is self-inverse) composes with the built-in passes:
///
/// ```
/// use qdaflow_pipeline::{FlowError, Ir, Pass, Pipeline, StageSet};
/// use qdaflow_pipeline::passes::{Revgen, Rptm, Tbs};
///
/// struct Mirror;
///
/// impl Pass for Mirror {
///     fn name(&self) -> &'static str {
///         "mirror"
///     }
///     fn accepts(&self) -> StageSet {
///         StageSet::REVERSIBLE
///     }
///     fn output(&self, input: StageSet) -> StageSet {
///         input
///     }
///     fn apply(&self, input: Ir) -> Result<Ir, FlowError> {
///         let circuit = input.into_reversible(self.name())?;
///         Ok(Ir::Reversible(circuit.inverse()))
///     }
/// }
///
/// # fn main() -> Result<(), FlowError> {
/// let pipeline = Pipeline::builder()
///     .then(Revgen::hwb(3))
///     .then(Tbs)
///     .then(Mirror)
///     .then(Rptm::default())
///     .build()?;
/// let report = pipeline.run_generated()?;
/// assert!(report.final_quantum().is_some());
/// # Ok(())
/// # }
/// ```
pub trait Pass {
    /// The pass name as written in a pipeline script.
    fn name(&self) -> &'static str;

    /// The pass name together with its arguments (as re-written in reports).
    fn describe(&self) -> String {
        self.name().to_owned()
    }

    /// The stages this pass accepts as input.
    fn accepts(&self) -> StageSet;

    /// The stages this pass may produce, given that its input is one of the
    /// stages in `input` (a subset of [`Pass::accepts`]).
    fn output(&self, input: StageSet) -> StageSet;

    /// Transforms one IR value into the next.
    ///
    /// # Errors
    ///
    /// Returns a [`FlowError`] when the underlying algorithm fails or when
    /// the input has a stage outside of [`Pass::accepts`].
    fn apply(&self, input: Ir) -> Result<Ir, FlowError>;

    /// For generator passes (such as `revgen --hwb 4`): produces the initial
    /// IR value of a pipeline that is run without an external input.
    /// Non-generator passes return `None`.
    ///
    /// # Errors
    ///
    /// The inner result reports generation failures.
    fn generate(&self) -> Option<Result<Ir, FlowError>> {
        None
    }

    /// Whether this pass can start a pipeline without an external input.
    fn is_generator(&self) -> bool {
        false
    }

    /// An optional human-readable note about `output`, recorded in the
    /// [`PassRecord`](crate::PassRecord) (used by reporting passes like
    /// `ps`). When `output` is a quantum circuit, `resources` are its counts,
    /// the ones the record holds, so a note need not count it again.
    fn summarize(&self, output: &Ir, resources: Option<&ResourceCounts>) -> Option<String> {
        let _ = (output, resources);
        None
    }
}
