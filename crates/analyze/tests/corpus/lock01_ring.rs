//@ crate: exec
//@ path: src/ring.rs
//! LOCK-01: a three-lock ring with no call edge. No two functions take
//! the same pair in opposite orders, yet together they can deadlock.
use std::sync::Mutex;

/// Takes `a` before `b`.
pub fn one(a: &Mutex<u32>, b: &Mutex<u32>) {
    let _a = a.lock();
    let _b = b.lock();
}

/// Takes `b` before `c`.
pub fn two(b: &Mutex<u32>, c: &Mutex<u32>) {
    let _b = b.lock();
    let _c = c.lock();
}

/// Takes `c` before `a`, closing the ring.
pub fn three(c: &Mutex<u32>, a: &Mutex<u32>) {
    let _c = c.lock();
    let _a = a.lock();
}
