//! # tiga-dbm — zones and federations for timed-game analysis
//!
//! This crate provides the symbolic substrate used by the
//! [TIGA reproduction](https://doi.org/10.1145/1403375.1403491) of
//! *"A Game-Theoretic Approach to Real-Time System Testing"*
//! (David, Larsen, Li, Nielsen — DATE 2008):
//!
//! * [`Bound`] — encoded difference bounds `≺ m` with `≺ ∈ {<, ≤}`;
//! * [`Dbm`] — canonical Difference Bound Matrices representing convex clock
//!   zones, with the full set of operations needed by forward reachability
//!   (`up`, `reset`, `free`, intersection, extrapolation) and by backward
//!   game solving (`down`, subtraction);
//! * [`Federation`] — finite unions of zones, including the safe
//!   time-predecessor operator [`Federation::pred_t`] at the heart of the
//!   timed-game controllable-predecessor computation;
//! * [`Coverage`] — the exact check `zone ⊆ ∪ covers` behind federation
//!   inclusion, the solvers' passed lists and strategy minimization, with
//!   reusable buffers so the inner loops do not allocate.
//!
//! # Example
//!
//! ```
//! use tiga_dbm::{Bound, Dbm, Federation};
//!
//! // The zone 1 <= x <= 4 over a single clock.
//! let mut zone = Dbm::universe(2);
//! zone.constrain(0, 1, Bound::le(-1));
//! zone.constrain(1, 0, Bound::le(4));
//!
//! // All valuations that can delay into the zone: x <= 4.
//! let mut past = zone.clone();
//! past.down();
//! assert!(past.contains_scaled(&[0, 0]));
//!
//! // Winning-state sets are federations.
//! let win = Federation::from_zone(zone);
//! assert!(win.contains_scaled(&[0, 6])); // x = 3
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bound;
mod dbm;
mod federation;
mod hash;
mod minimal;
mod store;

pub use bound::{max_constant_for, Bound, MAX_CONSTANT};
pub use dbm::{Dbm, DelayWindow, DisplayZone, Relation};
pub use federation::{zone_subtract, Coverage, Federation, REDUCE_THRESHOLD};
pub use hash::StateHasher;
pub use minimal::{MinimalConstraint, MinimalZone};
pub use store::{ZoneId, ZoneSet, ZoneStore};
