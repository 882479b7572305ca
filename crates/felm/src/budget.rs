//! Resource budgets for metered evaluation.
//!
//! FElm's stage-one calculus is strongly normalizing, but the functions
//! embedded in signal-graph nodes run *per event* on arbitrary client
//! programs, and nothing in the type system bounds how much work or
//! memory one application performs (a `twice`-tower makes 2^k β-steps
//! from k characters of source; a string-doubling chain allocates 2^k
//! bytes). A [`Budget`] puts dynamic bounds on one evaluation:
//!
//! * `fuel` — maximum reduction steps / interpreter node visits,
//! * `max_alloc_cells` — maximum cells allocated cumulatively (scalars
//!   count 1, strings/lists/records their length),
//! * `max_depth` — maximum evaluation/application nesting depth.
//!
//! A [`Meter`] threads a budget through an evaluator and reports the
//! first exhausted dimension as a typed [`Trap`] instead of diverging or
//! aborting the process. Traps for fuel, memory, and depth are a pure
//! function of the term and the budget — bit-for-bit deterministic across
//! runs — while [`Trap::DeadlineExceeded`] depends on the wall clock and
//! is only raised when a deadline is attached.

use std::fmt;
use std::time::Instant;

/// How many fuel ticks elapse between wall-clock deadline checks.
/// Amortizes `Instant::now()` so metered evaluation stays cheap.
const DEADLINE_CHECK_INTERVAL: u64 = 1024;

/// Resource limits for one evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Budget {
    /// Maximum reduction steps (small-step) or interpreter node visits
    /// (big-step).
    pub fuel: u64,
    /// Maximum cells allocated over the whole evaluation: scalar
    /// constructions charge 1, strings/lists/records additionally charge
    /// their length.
    pub max_alloc_cells: u64,
    /// Maximum evaluation nesting depth (big-step recursion depth, or the
    /// syntactic depth of the evolving small-step term).
    pub max_depth: u64,
}

impl Budget {
    /// A budget that never traps.
    pub const UNLIMITED: Budget = Budget {
        fuel: u64::MAX,
        max_alloc_cells: u64::MAX,
        max_depth: u64::MAX,
    };

    /// A fuel-only budget with unlimited allocation and depth.
    pub fn with_fuel(fuel: u64) -> Budget {
        Budget {
            fuel,
            ..Budget::UNLIMITED
        }
    }
}

impl Default for Budget {
    /// The per-event default used by hosting runtimes: generous enough for
    /// every honest program in the repository, small enough to trap a
    /// runaway in milliseconds.
    fn default() -> Budget {
        Budget {
            fuel: 2_000_000,
            max_alloc_cells: 16 * 1024 * 1024,
            max_depth: 4096,
        }
    }
}

/// A typed resource-exhaustion verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Trap {
    /// The step/visit budget ran out.
    OutOfFuel,
    /// Cumulative allocation exceeded `max_alloc_cells`.
    OutOfMemory,
    /// Evaluation nesting exceeded `max_depth`.
    DepthExceeded,
    /// The attached wall-clock deadline passed mid-evaluation.
    DeadlineExceeded,
}

impl Trap {
    /// Stable lower-case label, used as a metrics `kind` value.
    pub fn label(self) -> &'static str {
        match self {
            Trap::OutOfFuel => "out_of_fuel",
            Trap::OutOfMemory => "out_of_memory",
            Trap::DepthExceeded => "depth_exceeded",
            Trap::DeadlineExceeded => "deadline_exceeded",
        }
    }
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::OutOfFuel => write!(f, "evaluation ran out of fuel"),
            Trap::OutOfMemory => write!(f, "evaluation exceeded its allocation budget"),
            Trap::DepthExceeded => write!(f, "evaluation exceeded its depth budget"),
            Trap::DeadlineExceeded => write!(f, "evaluation blew its deadline"),
        }
    }
}

/// Mutable accounting state threading a [`Budget`] through an evaluator.
#[derive(Debug)]
pub struct Meter {
    budget: Budget,
    fuel_used: u64,
    alloc_cells: u64,
    depth: u64,
    deadline: Option<Instant>,
    ticks_to_clock: u64,
}

impl Meter {
    /// A meter enforcing `budget`, with no deadline.
    pub fn new(budget: Budget) -> Meter {
        Meter {
            budget,
            fuel_used: 0,
            alloc_cells: 0,
            depth: 0,
            deadline: None,
            ticks_to_clock: DEADLINE_CHECK_INTERVAL,
        }
    }

    /// A meter that never traps — the zero-configuration path used by the
    /// plain `eval`/`normalize` entry points.
    pub fn unlimited() -> Meter {
        Meter::new(Budget::UNLIMITED)
    }

    /// Attaches (or clears) a wall-clock deadline, checked every
    /// `DEADLINE_CHECK_INTERVAL` fuel ticks.
    pub fn with_deadline(mut self, deadline: Option<Instant>) -> Meter {
        self.deadline = deadline;
        self
    }

    /// The budget this meter enforces.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Fuel consumed so far.
    pub fn fuel_used(&self) -> u64 {
        self.fuel_used
    }

    /// Cells allocated so far.
    pub fn alloc_cells(&self) -> u64 {
        self.alloc_cells
    }

    /// Charges one reduction step / node visit.
    ///
    /// # Errors
    ///
    /// [`Trap::OutOfFuel`] when the budget is exhausted, or
    /// [`Trap::DeadlineExceeded`] on the periodic clock check.
    #[inline]
    pub fn tick(&mut self) -> Result<(), Trap> {
        self.fuel_used += 1;
        if self.fuel_used > self.budget.fuel {
            return Err(Trap::OutOfFuel);
        }
        if let Some(deadline) = self.deadline {
            self.ticks_to_clock -= 1;
            if self.ticks_to_clock == 0 {
                self.ticks_to_clock = DEADLINE_CHECK_INTERVAL;
                if Instant::now() >= deadline {
                    return Err(Trap::DeadlineExceeded);
                }
            }
        }
        Ok(())
    }

    /// Charges `cells` of allocation.
    ///
    /// # Errors
    ///
    /// [`Trap::OutOfMemory`] when the cumulative total passes the budget.
    #[inline]
    pub fn alloc(&mut self, cells: u64) -> Result<(), Trap> {
        self.alloc_cells = self.alloc_cells.saturating_add(cells);
        if self.alloc_cells > self.budget.max_alloc_cells {
            return Err(Trap::OutOfMemory);
        }
        Ok(())
    }

    /// Enters one nesting level (paired with [`Meter::leave`]).
    ///
    /// # Errors
    ///
    /// [`Trap::DepthExceeded`] when nesting passes the budget.
    #[inline]
    pub fn enter(&mut self) -> Result<(), Trap> {
        self.depth += 1;
        if self.depth > self.budget.max_depth {
            return Err(Trap::DepthExceeded);
        }
        Ok(())
    }

    /// Leaves one nesting level.
    #[inline]
    pub fn leave(&mut self) {
        self.depth = self.depth.saturating_sub(1);
    }

    /// Checks an externally computed depth (the small-step evaluator
    /// measures the evolving term's syntactic depth instead of tracking
    /// recursion).
    ///
    /// # Errors
    ///
    /// [`Trap::DepthExceeded`] when `depth` passes the budget.
    #[inline]
    pub fn check_depth(&self, depth: u64) -> Result<(), Trap> {
        if depth > self.budget.max_depth {
            return Err(Trap::DepthExceeded);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuel_traps_exactly_at_the_budget() {
        let mut m = Meter::new(Budget::with_fuel(3));
        assert!(m.tick().is_ok());
        assert!(m.tick().is_ok());
        assert!(m.tick().is_ok());
        assert_eq!(m.tick(), Err(Trap::OutOfFuel));
        assert_eq!(m.fuel_used(), 4);
    }

    #[test]
    fn alloc_is_cumulative() {
        let mut m = Meter::new(Budget {
            max_alloc_cells: 10,
            ..Budget::UNLIMITED
        });
        assert!(m.alloc(6).is_ok());
        assert!(m.alloc(4).is_ok());
        assert_eq!(m.alloc(1), Err(Trap::OutOfMemory));
    }

    #[test]
    fn depth_tracks_enter_leave() {
        let mut m = Meter::new(Budget {
            max_depth: 2,
            ..Budget::UNLIMITED
        });
        assert!(m.enter().is_ok());
        assert!(m.enter().is_ok());
        assert_eq!(m.enter(), Err(Trap::DepthExceeded));
        m.leave();
        m.leave();
        m.leave();
        assert!(m.enter().is_ok());
        assert!(m.check_depth(2).is_ok());
        assert_eq!(m.check_depth(3), Err(Trap::DepthExceeded));
    }

    #[test]
    fn deadline_in_the_past_traps_on_the_clock_check() {
        let mut m = Meter::unlimited().with_deadline(Some(Instant::now()));
        let mut trapped = false;
        for _ in 0..2 * DEADLINE_CHECK_INTERVAL {
            if m.tick() == Err(Trap::DeadlineExceeded) {
                trapped = true;
                break;
            }
        }
        assert!(trapped, "past deadline never detected");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Trap::OutOfFuel.label(), "out_of_fuel");
        assert_eq!(Trap::OutOfMemory.label(), "out_of_memory");
        assert_eq!(Trap::DepthExceeded.label(), "depth_exceeded");
        assert_eq!(Trap::DeadlineExceeded.label(), "deadline_exceeded");
        assert_eq!(format!("{}", Trap::OutOfFuel), "evaluation ran out of fuel");
    }
}
