//! Bad: polling loops that sleep without consulting a cancel signal.

/// Waits for workers with no way to be shut down.
pub fn wait_all(done: &Counter, total: usize) {
    while done.load(Ordering::Relaxed) < total {
        std::thread::sleep(POLL);
    }
}

/// An idle heartbeat loop with no exit signal either.
pub fn idle_forever(durable: &mut Durable) {
    loop {
        durable.maybe_heartbeat();
        std::thread::sleep(WAIT);
    }
}

/// A timed channel wait is a sleep too.
pub fn collect(results: &Receiver<Finished>, tick: Duration) {
    loop {
        if let Ok(f) = results.recv_timeout(tick) {
            settle(f);
        }
    }
}
