//! Bad: lock guards held while a call's arguments are evaluated.

/// The sweep pool's old bug: the `done` guard is taken before the
/// cell simulates, so the workers take turns.
pub fn worker(done: &Mutex<Vec<Cell>>, k: usize) {
    lock_recovering(done).push(simulate(k));
}

/// Through the poisoning adapter, with a method call as the argument.
pub fn record(log: &Mutex<Vec<String>>, event: &Event) {
    log.lock().unwrap_or_else(|p| p.into_inner()).push(event.render());
}

/// A write guard projected to a field still holds the lock.
pub fn store(table: &RwLock<Table>, key: u64) {
    table.write().unwrap().rows.insert(key, Row { value: expensive(key) });
}
