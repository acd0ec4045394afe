// Fixture: a waiver without a reason suppresses nothing and is itself a
// finding. Never compiled.
pub fn verbose() -> bool {
    // lint: allow(env-read)
    std::env::var("RAMPAGE_VERBOSE").is_ok()
}
