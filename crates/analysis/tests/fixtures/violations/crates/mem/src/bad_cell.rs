// Fixture: interior mutability in a cycle-level crate. Scanner input
// only; never compiled.
use std::cell::{Cell, RefCell};

pub struct Banks {
    hint: Cell,
    rows: RefCell,
}

static mut LAST_ROW: u64 = 0;

// A scan-position hint behind `&self`: acquire/release keeps it clear of
// the relaxed-atomic rule, but it is still hidden mutation.
use std::sync::atomic::{AtomicUsize, Ordering};

pub struct RowHint(AtomicUsize);

impl RowHint {
    pub fn get(&self) -> usize {
        self.0.load(Ordering::Acquire)
    }

    pub fn set(&self, pos: usize) {
        self.0.store(pos, Ordering::Release)
    }
}
