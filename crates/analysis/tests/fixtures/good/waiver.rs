// Fixture: a reasoned waiver suppresses the finding on the next line.
// Never compiled.
pub fn verbose() -> bool {
    // lint: allow(env-read) — diagnostics only, never reaches a result
    std::env::var("RAMPAGE_VERBOSE").is_ok()
}
