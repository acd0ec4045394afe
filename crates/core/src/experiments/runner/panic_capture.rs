//! Panic interception for the runner's per-cell isolation: a
//! process-wide hook that, on threads which opted in, records the panic
//! message, location, and a workspace-frame backtrace summary instead of
//! printing to stderr. Threads that did not opt in keep the previous
//! hook's behaviour.

use std::cell::{Cell, RefCell};
use std::sync::Once;

/// What the hook saw at the panic site.
#[derive(Debug, Clone, Default)]
pub struct CapturedPanic {
    pub message: String,
    pub location: String,
    pub backtrace: String,
}

thread_local! {
    static CAPTURING: Cell<bool> = const { Cell::new(false) };
    static LAST: RefCell<Option<CapturedPanic>> = const { RefCell::new(None) };
}

static INSTALL: Once = Once::new();

fn install() {
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !CAPTURING.with(Cell::get) {
                prev(info);
                return;
            }
            let message = if let Some(s) = info.payload().downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = info.payload().downcast_ref::<String>() {
                s.clone()
            } else {
                "panic payload of unknown type".to_string()
            };
            let location = info.location().map(|l| l.to_string()).unwrap_or_default();
            let backtrace = summarize(&std::backtrace::Backtrace::force_capture());
            LAST.with(|l| {
                *l.borrow_mut() = Some(CapturedPanic {
                    message: scrub_thread_ids(&message),
                    location: repo_relative(&location).to_string(),
                    backtrace,
                })
            });
        }));
    });
}

/// Keep only the frames that point into this workspace (the part of
/// a backtrace a failure report can act on), capped at a few frames.
///
/// Summaries land in persisted failure records (`metrics.json`, the
/// failure report), which a golden test compares byte-for-byte
/// between runs at different pool widths — so everything scheduling- or
/// checkout-dependent is normalized away: frame indices (stack depth is
/// an accident of the call path), the capture hook's own frames (they
/// sit at the top of the stack), everything below the `catch_unwind`
/// isolation boundary, and absolute source paths (cut to their
/// repo-relative suffix).
fn summarize(bt: &std::backtrace::Backtrace) -> String {
    const MAX_FRAMES: usize = 8;
    let mut out: Vec<String> = Vec::new();
    let mut frames = 0usize;
    let mut kept_frame = false;
    for raw in bt.to_string().lines() {
        let line = raw.trim();
        if line.contains("catch_unwind") || line.contains("panicking::try") {
            break;
        }
        if line.contains("panic_capture") {
            continue;
        }
        if let Some(loc) = line.strip_prefix("at ") {
            if kept_frame {
                out.push(format!("at {}", repo_relative(loc)));
            }
            kept_frame = false;
            continue;
        }
        kept_frame = false;
        if !line.contains("rampage") || frames >= MAX_FRAMES {
            continue;
        }
        let symbol = match line.split_once(": ") {
            Some((_, s)) => s,
            None => line,
        };
        out.push(symbol.to_string());
        frames += 1;
        kept_frame = true;
    }
    out.join("\n")
}

/// Cut an absolute source path down to its repo-relative suffix, so
/// two checkouts (or two build machines) render the same summary.
pub(super) fn repo_relative(path: &str) -> &str {
    for marker in ["crates/", "src/", "tests/"] {
        if let Some(ix) = path.find(marker) {
            return &path[ix..];
        }
    }
    path.rsplit('/').next().unwrap_or(path)
}

/// Replace every `ThreadId(<n>)` with `ThreadId(?)`: thread identity
/// is scheduling-dependent and must never reach persisted failure
/// records (jobs-1-vs-N byte equality).
pub(super) fn scrub_thread_ids(s: &str) -> String {
    const NEEDLE: &str = "ThreadId(";
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(ix) = rest.find(NEEDLE) {
        let (head, tail) = rest.split_at(ix + NEEDLE.len());
        out.push_str(head);
        let digits = tail.chars().take_while(char::is_ascii_digit).count();
        if digits > 0 && tail[digits..].starts_with(')') {
            out.push_str("?)");
            rest = &tail[digits + 1..];
        } else {
            rest = tail;
        }
    }
    out.push_str(rest);
    out
}

/// Run `f` with panics captured: on unwind, returns what the hook
/// recorded on this thread.
pub fn catch<T>(f: impl FnOnce() -> T) -> Result<T, CapturedPanic> {
    install();
    CAPTURING.with(|c| c.set(true));
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    CAPTURING.with(|c| c.set(false));
    match out {
        Ok(v) => Ok(v),
        Err(payload) => Err(LAST.with(|l| l.borrow_mut().take()).unwrap_or_else(|| {
            // The hook did not fire (foreign panic runtime): salvage
            // what the payload itself carries.
            let message = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "panic payload of unknown type".to_string()
            };
            CapturedPanic {
                message: scrub_thread_ids(&message),
                ..CapturedPanic::default()
            }
        })),
    }
}
