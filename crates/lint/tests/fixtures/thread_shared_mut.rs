// Fixture: thread-shared-mut — writable or non-Sync process globals in a
// simulator crate (worlds on worker threads must not share them).

static mut EVENT_COUNT: u64 = 0;

static SHARED_TABLE: std::cell::RefCell<Vec<u32>> = todo!();

fn suppressed() {}
// xtsim-lint: allow(thread-shared-mut, "fixture demo of the suppression syntax")
static mut LEGACY_KNOB: bool = false;

// Negative cases: Sync globals, thread-locals, and lifetimes stay silent.
static LIMIT: usize = 1024;
static GAUGE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

thread_local! {
    static DEPTH: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    static SCRATCH: std::cell::RefCell<Vec<u8>> = std::cell::RefCell::new(Vec::new());
}

fn lifetime(s: &'static str) -> &'static str {
    s
}

#[cfg(test)]
mod tests {
    // Test scaffolding may use process globals.
    static mut TEST_ONLY: u32 = 0;
}
