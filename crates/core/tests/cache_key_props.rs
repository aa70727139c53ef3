//! Property tests for the sweep-cache key: distinct inputs must get distinct
//! digests, and equal content must digest identically no matter how the key
//! was assembled — including across process restarts (no randomized hasher
//! state anywhere).

use proptest::prelude::*;
use xtsim::report::Scale;
use xtsim::sweep::JobKey;
use xtsim_machine::{presets, ExecMode, MachineSpec};

fn tweaked(clock_ghz: f64, cores: u32, eager_kib: u64) -> MachineSpec {
    let mut m = presets::xt4();
    m.processor.clock_ghz = clock_ghz;
    m.processor.cores_per_socket = cores;
    m.nic.eager_threshold_bytes = eager_kib << 10;
    m
}

proptest! {
    #[test]
    fn distinct_machine_content_gives_distinct_digests(
        clock in 1.0f64..3.0,
        delta in 0.001f64..1.0,
        cores in 1u32..8,
        eager in 1u64..512,
    ) {
        let a = tweaked(clock, cores, eager);
        let clock_changed = tweaked(clock + delta, cores, eager);
        let cores_changed = tweaked(clock, cores + 1, eager);
        let eager_changed = tweaked(clock, cores, eager + 1);
        let key = |m: &MachineSpec| {
            JobKey::new("probe", Some(m), Some(ExecMode::VN), Scale::Quick).with("p", 1).digest()
        };
        prop_assert_ne!(key(&a), key(&clock_changed));
        prop_assert_ne!(key(&a), key(&cores_changed));
        prop_assert_ne!(key(&a), key(&eager_changed));
        // Content-equal specs digest identically regardless of provenance.
        prop_assert_eq!(key(&a), key(&tweaked(clock, cores, eager)));
    }

    #[test]
    fn mode_scale_and_kind_separate_digests(
        clock in 1.0f64..3.0,
        cores in 1u32..8,
        eager in 1u64..512,
    ) {
        let m = tweaked(clock, cores, eager);
        let base = JobKey::new("probe", Some(&m), Some(ExecMode::SN), Scale::Quick).digest();
        prop_assert_ne!(
            base.clone(),
            JobKey::new("probe", Some(&m), Some(ExecMode::VN), Scale::Quick).digest()
        );
        prop_assert_ne!(
            base.clone(),
            JobKey::new("probe", Some(&m), Some(ExecMode::SN), Scale::Full).digest()
        );
        prop_assert_ne!(
            base,
            JobKey::new("probe2", Some(&m), Some(ExecMode::SN), Scale::Quick).digest()
        );
    }

    #[test]
    fn param_insertion_order_is_irrelevant(
        a in 0i64..1000,
        b in 0.0f64..100.0,
        sockets in 1usize..4096,
    ) {
        let m = presets::xt3_dual();
        let fwd = JobKey::new("probe", Some(&m), Some(ExecMode::VN), Scale::Full)
            .with("alpha", a)
            .with("beta", b)
            .with("sockets", sockets)
            .digest();
        let rev = JobKey::new("probe", Some(&m), Some(ExecMode::VN), Scale::Full)
            .with("sockets", sockets)
            .with("beta", b)
            .with("alpha", a)
            .digest();
        prop_assert_eq!(fwd, rev);
    }

    #[test]
    fn param_values_separate_digests(a in 0i64..1000, b in 1i64..1000) {
        let key = |v: i64| JobKey::new("probe", None, None, Scale::Quick).with("x", v).digest();
        prop_assert_ne!(key(a), key(a + b));
    }
}

/// Pinned digest of a fixed key. If this test fails, the canonical encoding
/// (or the FNV constants) changed between builds — which silently invalidates
/// every existing cache. Change it only alongside an ENGINE_VERSION bump.
#[test]
fn digest_is_stable_across_processes() {
    let plain = JobKey::new("stable-probe", None, None, Scale::Quick).with("x", 1);
    assert_eq!(plain.digest(), "4efd541561d1b2860c641c0cea72c55d");
    let with_machine =
        JobKey::new("stable-probe", Some(&presets::xt4()), Some(ExecMode::VN), Scale::Full)
            .with("bytes", 1u64 << 20)
            .with("ratio", 0.5);
    assert_eq!(with_machine.digest(), "a19ba76866e17dc96c9af347414c1106");
}
