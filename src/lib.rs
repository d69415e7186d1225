//! Umbrella crate for the wireless security processing platform
//! reproduction (DAC 2002: Ravi, Raghunathan, Potlapally, Sankaradass,
//! *System Design Methodologies for a Wireless Security Processing
//! Platform*).
//!
//! This crate re-exports the workspace's subsystems so examples and
//! integration tests can use a single dependency:
//!
//! - [`xr32`]: the configurable, extensible embedded RISC processor
//!   substrate (ISA, assembler, cycle-accurate instruction-set simulator).
//! - [`mpint`]: multi-precision integer arithmetic (GMP replacement).
//! - [`ciphers`]: DES / 3DES / AES / SHA-1 and block modes.
//! - [`pubkey`]: RSA / ElGamal and the modular-exponentiation design space.
//! - [`macromodel`]: performance characterization and regression
//!   macro-modeling.
//! - [`tie`]: custom-instruction A-D curves and global selection.
//! - [`kreg`]: the typed kernel registry shared by all four
//!   methodology phases (descriptors, calling conventions, golden
//!   references, stimulus spaces, cache tags).
//! - [`secproc`]: the security processing platform itself and the
//!   four-phase co-design methodology.
//! - [`xlint`]: dataflow static analysis and the constant-time
//!   (secret-taint) checker for XR32 kernels.
//! - [`xpar`]: the deterministic scoped worker pool driving the
//!   parallel methodology engine.
//!
//! # Examples
//!
//! ```
//! use wsp::mpint::Natural;
//!
//! let n = Natural::from_u64(42);
//! assert_eq!(n.to_string(), "42");
//! ```

pub use ciphers;
pub use kreg;
pub use macromodel;
pub use mpint;
pub use pubkey;
pub use secproc;
pub use tie;
pub use xlint;
pub use xpar;
pub use xr32;
