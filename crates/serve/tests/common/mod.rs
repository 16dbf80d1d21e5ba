//! Harness shared by the service end-to-end suites: the demo service they
//! all start and the bounded wait they all poll with.

use std::time::{Duration, Instant};

use max_serve::{demo_weights, GcService, ServeConfig};
use maxelerator::AcceleratorConfig;

/// Operand width of every suite's demo model.
pub const WIDTH: usize = 8;

/// Starts a service on the `rows × cols` demo model of `seed`, after
/// `mutate` has adjusted its configuration.
pub fn demo_service(
    rows: usize,
    cols: usize,
    seed: u64,
    mutate: impl FnOnce(&mut ServeConfig),
) -> GcService {
    let weights = demo_weights(rows, cols, WIDTH, seed);
    let mut cfg = ServeConfig::new(AcceleratorConfig::new(WIDTH), weights, seed);
    mutate(&mut cfg);
    GcService::start(cfg)
}

/// Polls `cond` every 5 ms; panics naming `what` after 10 s.
pub fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}
