//! Good: every path re-reads the journal between claim and execution.

/// The protocol: append the claim, re-scan, execute only if ours.
pub fn claim_and_run(durable: &mut Durable, ready: bool) {
    durable.append(JournalOp::Claim { fp: 7, attempt: 1 });
    let readback = durable.scan();
    if ready {
        touch(&readback);
    }
    execute_slice(durable);
}

/// No claim appended: execution needs no readback.
pub fn run_adopted(durable: &mut Durable) {
    execute_slice(durable);
}

/// The streaming pool's shape: claim, re-scan, then queue the winners.
pub fn claim_and_queue(durable: &mut Durable, queue: &Sender<usize>) {
    let winners = match durable.lease() {
        None => Vec::new(),
        Some(lease) => {
            durable.append(JournalOp::Claim { fp: 9, attempt: 1 });
            winners_of(durable.scan(), lease)
        }
    };
    for k in winners {
        queue.send(k);
    }
}
