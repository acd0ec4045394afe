//! Good: the work happens before the lock is taken.

/// Bind the result first, then lock only to store it.
pub fn worker(done: &Mutex<Vec<Cell>>, k: usize) {
    let cell = simulate(k);
    lock_recovering(done).push(cell);
}

/// Plain values, constructors, and closures do no work under the lock.
pub fn record(log: &Mutex<Vec<(usize, Option<u64>)>>, i: usize, fp: u64) {
    log.lock()
        .unwrap_or_else(|p| p.into_inner())
        .push((i, Some(fp)));
}

/// A let-bound guard is scoped by its block (clippy's territory).
pub fn next(queue: &Mutex<Queue>) -> Option<u64> {
    let next = {
        let mut q = queue.lock().unwrap_or_else(|p| p.into_inner());
        q.next()
    };
    next
}

/// Calls on things that are not guards are fine.
pub fn fill(v: &mut Vec<u64>, k: u64) {
    v.push(square(k));
}
