// Fixture: waivers that match no finding, including one naming an
// unknown rule. Never compiled.
pub fn verbose(flag: bool) -> bool {
    // lint: allow(env-read) — the flag is plumbed in, nothing fires here
    flag
}

pub fn total(v: &[u64]) -> u64 {
    // lint: allow(no-such-rule) — a reason does not rescue an unknown id
    v.len() as u64
}
