//! A RevKit-style command shell for the `qdaflow` compilation flow.
//!
//! RevKit is "executed as a command-based shell application, which allows to
//! perform synthesis scripts by combining a variety of different commands"
//! (Section VI of the paper). This crate reproduces that interface: a
//! [`store::Store`] holds the current Boolean specification, reversible
//! circuit and quantum circuit, and [`shell::Shell`] executes command
//! pipelines such as the one from equation (5) of the paper:
//!
//! ```text
//! revgen --hwb 4; tbs; revsimp; rptm; tpar; ps -c
//! ```
//!
//! The shell has no synthesis or optimization code of its own. Each pass
//! command (`revgen`, `tbs`, `dbs`, `esopbs`, `revsimp`, `rptm`, `tpar`) is
//! a [`command::PassCommand`] that runs the `qdaflow_pipeline` pass of the
//! same name as a one-pass `Pipeline` over the store, the way `flow` runs a
//! whole script, and logs `[<name>] ` followed by the `ps` statistics of its
//! output.
//!
//! # Example
//!
//! ```
//! use qdaflow_revkit::shell::Shell;
//!
//! # fn main() -> Result<(), qdaflow_revkit::RevkitError> {
//! let mut shell = Shell::new();
//! let output = shell.run_script("revgen --hwb 4; tbs; revsimp; rptm; tpar; ps -c")?;
//! assert!(output.iter().any(|line| line.contains("T-count")));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod command;
pub mod error;
pub mod shell;
pub mod store;

pub use error::RevkitError;
pub use shell::Shell;
pub use store::Store;
