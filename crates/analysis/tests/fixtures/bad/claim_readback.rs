//! Bad: a claim is appended but one path executes without a readback.

/// Claims a cell, then runs it — but only the `ready` path re-reads the
/// journal to confirm the claim won the file-order race.
pub fn claim_and_run(durable: &mut Durable, ready: bool) {
    durable.append(JournalOp::Claim { fp: 7, attempt: 1 });
    if ready {
        let confirmed = durable.scan();
        consume(confirmed);
    }
    // BAD: on the `!ready` path the claim was never read back.
    execute_slice(durable);
}

/// Claims a cell and queues it for a pool worker with no readback.
pub fn claim_and_queue(durable: &mut Durable, queue: &Sender<usize>) {
    durable.append(JournalOp::Claim { fp: 9, attempt: 1 });
    // BAD: handing the cell to a worker is executing it.
    queue.send(9);
}
